(* A fixed piece of work that measures how fast the host is running right
   now, independent of the program under test.

   It builds, sorts and hashes a list of 3000 floats: allocation, pointer
   chasing and branches, the mix the samplers spend their time on. Timed
   in turn with lollipop draws, expander draws and audit oracles for four
   minutes on a two-vCPU VM, the ratio of their times to its time varied
   by 3-5% between twenty-second windows (quartile spread), against 7-9%
   for their own times. A pure integer loop or a float matrix product in
   its place left 5-8%.

   Each piece starts on an empty minor heap and allocates less than the
   minor heap holds, so the time it takes does not depend on what the
   program left on the major heap. *)

let piece r =
  let l = List.init 3_000 (fun i -> float_of_int (((i * 7919) + r) mod 10007)) in
  let l = List.sort Float.compare l in
  let h = Hashtbl.create 1024 in
  List.iteri (fun i x -> if i land 7 = 0 then Hashtbl.replace h (int_of_float x) i) l;
  ignore (Sys.opaque_identity (List.nth l 100 +. float_of_int (Hashtbl.length h)))

(* Seconds taken by eight pieces, each timed alone; about 3 ms. *)
let sample () =
  let total = ref 0.0 in
  for r = 0 to 7 do
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    piece r;
    total := !total +. (Unix.gettimeofday () -. t0)
  done;
  !total
