open Rme_sim

type node = { id : int; next : Cell.t; locked : Cell.t; owner : int }

let null = 0

(* Node cells are named [<prefix>.n<id>.next] / [.locked]; the stem is
   built once per registry and each name rendered only if read. *)
type registry = { mem : Memory.t; stem : string; nodes : node Vec.t }

let create_registry mem ~prefix = { mem; stem = prefix ^ ".n"; nodes = Vec.create () }

let fresh reg ~owner =
  let id = Vec.length reg.nodes + 1 in
  let node =
    {
      id;
      next = Memory.alloc_nth reg.mem ~home:owner ~stem:reg.stem ~index:id ~suffix:".next" null;
      locked = Memory.alloc_nth reg.mem ~home:owner ~stem:reg.stem ~index:id ~suffix:".locked" 0;
      owner;
    }
  in
  Vec.push reg.nodes node;
  node

let get reg id =
  if id <= 0 || id > Vec.length reg.nodes then
    invalid_arg (Printf.sprintf "Nodes.get: bad node id %d" id);
  Vec.get reg.nodes (id - 1)

let count reg = Vec.length reg.nodes
