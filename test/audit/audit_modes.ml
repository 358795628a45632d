(* Audit rows for the two sampler settings the cctree CLI does not expose:
   the Powering Schur mode and the non-lazy walk.

     audit_modes.exe (powering|nonlazy) FAMILY N OUT

   builds FAMILY at N from seed 7 and draws 200 trees from one prepared
   plan, tree i from the i-th split of the seed's stream, as
   [cctree sample -f FAMILY -n N --seed 7 --count 200] does with the
   default config. It writes the audit artifact to OUT, for
   [ccprof audit --assert]. *)

module Sampler = Cc_sampler.Sampler
module Audit = Cc_audit.Audit
module Prng = Cc_util.Prng
module Gen = Cc_graph.Gen
module Graph = Cc_graph.Graph
module Net = Cc_clique.Net

let usage () =
  prerr_endline "usage: audit_modes (powering|nonlazy) FAMILY N OUT";
  exit 2

let () =
  match Sys.argv with
  | [| _; mode; family; n; out |] ->
      let config =
        match mode with
        | "powering" ->
            { Sampler.default_config with schur = Sampler.Powering }
        | "nonlazy" -> { Sampler.default_config with lazy_walk = false }
        | _ -> usage ()
      in
      let prng = Prng.create ~seed:7 in
      let g =
        Gen.build prng (Gen.family_of_string family) ~n:(int_of_string n)
      in
      let plan = Sampler.prepare ~config g in
      let net = Net.create ~n:(Graph.n g) in
      let audit = Audit.create g in
      for _ = 1 to 200 do
        Audit.observe audit (Sampler.draw plan net (Prng.split prng)).tree
      done;
      Out_channel.with_open_text out (fun oc ->
          output_string oc (Audit.to_jsonl audit))
  | _ -> usage ()
