(** Disjoint, non-adjacent runs of sectors ordered by start sector: the
    shape of {!Disk}'s write buffer.

    A persistent map from a run's start sector to its length.  Adding a
    run merges it with every run it overlaps or touches, so no two runs
    ever overlap or abut.  Every operation is O(log n) in the number of
    runs, which matters because random swap-outs fragment a 32 MiB
    buffer into thousands of one-page runs. *)

type t

val empty : t
val is_empty : t -> bool

(** [cardinal t] is the number of runs.  O(n). *)
val cardinal : t -> int

(** [add t ~start ~len] adds [\[start, start + len)], merging it with the
    runs it overlaps or touches.  Returns the new set and the number of
    sectors that were not already in [t]. *)
val add : t -> start:int -> len:int -> t * int

(** [covers t ~start ~len] holds when [\[start, start + len)] lies inside
    one run. *)
val covers : t -> start:int -> len:int -> bool

(** [take t ~head ~limit] removes and returns [(t', start, len)]: up to
    [limit] sectors from the run closest to [head] — a one-step elevator
    with bounded chunks.  A run's distance is 0 when [head] lies in it
    (ends included), else the gap from [head] to its nearer end; of two
    runs at equal distance the lower one wins.  When [head] lies strictly
    inside the chosen run the chunk starts at [head], continuing the
    sweep, and the sectors behind it stay in the set.  [None] when [t]
    is empty. *)
val take : t -> head:int -> limit:int -> (t * int * int) option
