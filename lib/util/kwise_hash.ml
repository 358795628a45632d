type t = {
  coeffs : int array; (* degree-(t-1) polynomial coefficients in F_p *)
  range : int;
}

let field_prime = 0x7fffffff (* 2^31 - 1, Mersenne prime *)

let create prng ~independence ~domain ~range =
  if independence <= 0 then invalid_arg "Kwise_hash.create: independence <= 0";
  if domain <= 0 || domain >= field_prime then
    invalid_arg "Kwise_hash.create: domain must fit in the field";
  if range <= 0 then invalid_arg "Kwise_hash.create: range <= 0";
  let coeffs =
    Array.init independence (fun _ -> Prng.int prng field_prime)
  in
  { coeffs; range }

(* Horner evaluation in F_p. Operands are < 2^31 so the product fits in the
   62 value bits of a native int. *)
let apply h x =
  let p = field_prime in
  let acc = ref 0 in
  for i = Array.length h.coeffs - 1 downto 0 do
    acc := ((!acc * x) + h.coeffs.(i)) mod p
  done;
  !acc mod h.range

let apply2 h ~encode_bound x y =
  let encoded = (x * encode_bound) + y in
  if encoded >= field_prime then
    invalid_arg "Kwise_hash.apply2: encoded pair exceeds field";
  apply h encoded
