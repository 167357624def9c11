(** Shared-memory cells.

    A cell is one word of simulated shared memory holding an [int].  Every
    shared variable of a lock algorithm — [tail], the per-process [state],
    [mine] and [pred] entries, queue-node fields — is one cell.

    Under the DSM memory model each cell lives in the memory module of one
    process (its {e home}); operations by other processes on it are remote
    memory references.  Cells with home {!global} live on a dedicated memory
    node and are remote to every process, which is the standard treatment of
    global variables such as the MCS [tail] pointer. *)

type t = private {
  id : int;
  name : string;
  home : int;
  some_name : string option;
      (** [Some name], built once here so that per-instruction consumers
          (crash-plan [op_info]) share it instead of boxing a fresh option
          on every step. *)
}

val global : int
(** Home value meaning "remote to every process". *)

val make : id:int -> name:string -> home:int -> t
(** Used by {!Memory.alloc}; not intended for direct use. *)

val pp : t Fmt.t

val equal : t -> t -> bool
