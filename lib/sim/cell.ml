type t = { id : int; name : string; home : int; some_name : string option }

let global = -1

let make ~id ~name ~home = { id; name; home; some_name = Some name }

let pp ppf t = Fmt.pf ppf "%s#%d" t.name t.id

let equal a b = a.id = b.id
