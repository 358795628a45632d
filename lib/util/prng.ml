type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x5eed; seed lxor 0x9e3779b9 |]

let split t = Random.State.split t
let streams t n = Array.init n (fun _ -> split t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* full_int, unlike int, accepts bounds up to 2^62 - 1 (needed for the
     2^31-sized hash field). *)
  Random.State.full_int t bound

let float t bound = Random.State.float t bound

let bool t = Random.State.bool t

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let subset t ~size arr =
  let n = Array.length arr in
  if size > n then invalid_arg "Prng.subset: size exceeds array length";
  let copy = Array.copy arr in
  (* Partial Fisher–Yates: only the first [size] slots need to be finalized. *)
  for i = 0 to size - 1 do
    let j = i + int t (n - i) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 size
