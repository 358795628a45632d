(** The spectral gap of the random walk.

    The paper's two algorithms split the world by cover time, and cover time
    is governed by the walk's spectral gap (expanders: constant gap, hence
    O(n log n) cover; lollipops: Theta(1/n^2)-scale gap). This module
    computes lambda_2 by power iteration on the symmetrized walk matrix
    [N = D^{-1/2} A D^{-1/2}] (similar to P, so same spectrum) — used by
    bench E9+ to connect the measured cover times to spectra, and by tests
    on families with known eigenvalues. *)

(** [gap ?iters g] is the {e lazy} spectral gap
    [(1 - lambda_2) / 2] — the gap of (I+P)/2, insensitive to
    bipartiteness, matching the sampler's lazy default — after [iters]
    (default 10,000) power iterations from a start vector drawn with
    seed 1. *)
val gap : ?iters:int -> Graph.t -> float

