(** Linear solvers: LU decomposition, inversion, determinants.

    Used for (i) the exact Schur complement
    [M_SS - M_S,Sbar (M_Sbar,Sbar)^{-1} M_Sbar,S] (Section 2.2), (ii) the
    Matrix–Tree theorem (determinant of a Laplacian minor counts spanning
    trees), and (iii) exact absorbing-chain limits for the shortcut graph.

    Every solver factors with partial pivoting (the first row of largest
    magnitude wins) and treats a pivot of magnitude at most 1e-13 as zero. *)

(** [solve m b] solves [m x = b].
    @raise Failure ["Solve.lu_solve: singular matrix"] if a pivot is zero.
    @raise Invalid_argument if [m] is not square or [b] has the wrong length. *)
val solve : Mat.t -> float array -> float array

(** [solve_mat m b] solves [m X = B]; raises as {!solve}. *)
val solve_mat : Mat.t -> Mat.t -> Mat.t

(** [inverse m]; raises as {!solve}. *)
val inverse : Mat.t -> Mat.t

(** [determinant m]; 0 for singular matrices. *)
val determinant : Mat.t -> float

(** [log_determinant m] returns [(sign, log |det|)]; robust for the large
    spanning-tree counts of Matrix–Tree. [sign] is 0 for singular input. *)
val log_determinant : Mat.t -> int * float

(** [schur_complement m ~keep] is SCHUR(M, S) for S = [keep] (Section 2.2):
    [M_SS - M_S,Sbar (M_Sbar,Sbar)^{-1} M_Sbar,S]. The result is indexed in
    the order of [keep]. @raise Failure if [M_Sbar,Sbar] is singular. *)
val schur_complement : Mat.t -> keep:int array -> Mat.t
