type t = {
  id : int;
  home : int;
  stem : string;
  index : int;
  suffix : string;
  mutable rendered : string;
  some : t option;
}

let global = -1

(* [index] of a cell whose name is [stem ^ suffix], with no number. *)
let no_index = min_int

let make ~id ~name ~home =
  let rec c = { id; home; stem = name; index = no_index; suffix = ""; rendered = name; some = Some c } in
  c

(* [rendered] starts empty: a numbered name always has a digit, so the empty
   string can only mean "not rendered yet". *)
let make_nth ~id ~stem ~index ~suffix ~home =
  let rec c = { id; home; stem; index; suffix; rendered = ""; some = Some c } in
  c

let name c =
  if String.length c.rendered > 0 || c.index = no_index then c.rendered
  else begin
    let s = c.stem ^ string_of_int c.index ^ c.suffix in
    c.rendered <- s;
    s
  end

let pp ppf t = Fmt.pf ppf "%s#%d" (name t) t.id

let equal a b = a.id = b.id
