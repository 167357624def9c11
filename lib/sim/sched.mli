(** Schedulers: who takes the next step.

    Processes run at arbitrary speeds and interleave arbitrarily (§2.1); the
    scheduler is the adversary that chooses the interleaving.  All
    schedulers here are fair over runnable processes, as the starvation-
    freedom property requires of fair histories. *)

type t

val label : t -> string

val pick : t -> runnable:int array -> step:int -> int
(** [pick t ~runnable ~step] chooses one pid from [runnable] (non-empty). *)

val round_robin : unit -> t
(** Cycles through the processes in pid order. *)

val random : seed:int -> t
(** Uniform choice among runnable processes (fair with probability 1). *)

val greedy : unit -> t
(** Runs the lowest runnable pid until it blocks — an extreme (still fair in
    bounded runs) schedule that maximises solo bursts. *)

val burst : seed:int -> len:int -> t
(** Runs a randomly chosen process for up to [len] consecutive steps before
    switching — a convoy-forming adversary that stresses hand-off paths. *)

val recording : inner:t -> decisions:int Vec.t -> t
(** Delegates every pick to [inner] and appends the chosen pid's index into
    the {e sorted} runnable set to [decisions] — the same encoding {!trace}
    consumes.  A run scheduled by [recording ~inner] followed by a replay
    under [trace ~decisions] takes the identical schedule, which is how the
    chaos campaign turns a random adversarial discovery into a
    deterministic, shrinkable witness. *)

exception Unfaithful of { position : int; choice : int; degree : int }
(** Raised by a [strict] trace scheduler when [decisions.(position)] is not a
    valid index into a runnable set of size [degree]. *)

val trace :
  ?mismatch:bool ref -> ?strict:bool -> decisions:int Vec.t -> record:int Vec.t -> unit -> t
(** Replay scheduler for the bounded explorer: a pick at position [i]
    takes [decisions.(i)] as an index into the sorted runnable set (0 when
    the trace is exhausted) and appends the size of the runnable set to
    [record], letting the explorer enumerate sibling branches.  The
    position is [Vec.length record]: with an empty [record] the [i]-th
    pick is position [i], and a [record] seeded with a prefix of degrees
    continues the schedule after that prefix — how a resumed run
    ({!Engine.run_resumable}) picks up at its checkpoint.

    A decision outside the observed branching degree means the replay has
    diverged from the run the vector was recorded against (shrinking can
    shift degrees).  The pick still resolves — the index is reduced modulo
    the degree — but the divergence sets [mismatch] (when supplied) so the
    caller can reject the replay as unfaithful; with [strict], it raises
    {!Unfaithful} instead. *)
