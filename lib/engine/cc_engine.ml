type t = unit

let create ?(domains = 1) () =
  if domains <> 1 then invalid_arg "Cc_engine.create: only one domain"

let domains () = 1
let default_domains () = 1
let set_default () = ()
let shutdown () = ()
