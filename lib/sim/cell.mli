(** Shared-memory cells.

    A cell is one word of simulated shared memory holding an [int].  Every
    shared variable of a lock algorithm — [tail], the per-process [state],
    [mine] and [pred] entries, queue-node fields — is one cell.

    Under the DSM memory model each cell lives in the memory module of one
    process (its {e home}); operations by other processes on it are remote
    memory references.  Cells with home {!global} live on a dedicated memory
    node and are remote to every process, which is the standard treatment of
    global variables such as the MCS [tail] pointer.

    A cell's name is for people — traces, crash sites, reports — and most
    runs never read it, so a numbered name ([wr.pred[0]], [wr.n3.locked]) is
    kept as its parts and rendered by {!name} on first read, then memoised.
    The record therefore holds a mutable memo and is cyclic ([some]):
    compare cells with {!equal} or by [id], never structurally. *)

type t = private {
  id : int;
  home : int;
  stem : string;
  index : int;
  suffix : string;
  mutable rendered : string;
      (** the name once {!name} has rendered it; set at creation for
          fixed names *)
  some : t option;
      (** [Some] of this cell, built once here so that per-instruction
          consumers (the crash consult's {!Crash.op_info}) share it instead
          of boxing a fresh option on every step. *)
}

val global : int
(** Home value meaning "remote to every process". *)

val make : id:int -> name:string -> home:int -> t
(** A cell with the fixed name [name].  Used by {!Memory.alloc}; not
    intended for direct use. *)

val make_nth : id:int -> stem:string -> index:int -> suffix:string -> home:int -> t
(** A cell named [stem ^ string_of_int index ^ suffix], rendered on first
    read.  Used by {!Memory.alloc_nth}. *)

val name : t -> string
(** The cell's name.  The first read of a numbered name formats and
    memoises it.  Two domains reading the same unrendered cell at once may
    both format it and store equal strings; either result is the name. *)

val pp : t Fmt.t

val equal : t -> t -> bool
