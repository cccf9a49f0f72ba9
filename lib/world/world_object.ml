(* A passive world-plane object o ∈ O (paper §2.1).

   Objects carry attributes, may move, and have no access to any clock —
   the defining asymmetry between O and P.  An object's attribute changes
   go through [World.set_attr], which notifies the sensors. *)

module Vec2 = Psn_util.Vec2

type t = {
  id : int;
  name : string;
  mutable pos : Vec2.t;
  attrs : (string, Value.t) Hashtbl.t;
  mutable tags : string list;
}

let create ~id ~name ?(pos = Vec2.zero) () =
  if id < 0 then invalid_arg "World_object.create: negative id";
  { id; name; pos; attrs = Hashtbl.create 8; tags = [] }

let id t = t.id
let name t = t.name
let pos t = t.pos
let set_pos t p = t.pos <- p

let get_attr t key = Hashtbl.find_opt t.attrs key

(* Raw write; scenario code should go through World.set_attr so the
   sensors see the change. *)
let set_attr_raw t key v = Hashtbl.replace t.attrs key v

let add_tag t tag = if not (List.mem tag t.tags) then t.tags <- tag :: t.tags
let has_tag t tag = List.mem tag t.tags
let tags t = t.tags
