(** Mutable undirected graph on integer nodes [0, n).

    Models the paper's dynamically changing overlays L (network plane) and
    C (world plane). *)

type t

val create : n:int -> t
val size : t -> int
val add_edge : t -> int -> int -> unit
(** Self-loops are ignored. Raises on out-of-range nodes. *)

val remove_edge : t -> int -> int -> unit
val has_edge : t -> int -> int -> bool
val neighbors : t -> int -> int list
val degree : t -> int -> int
val edge_count : t -> int

val bfs_dist : t -> int -> int array
(** Hop distances from a source; -1 when unreachable. *)

val connected : t -> bool

val complete : n:int -> t
val ring : n:int -> t
val star : n:int -> t
(** Node 0 is the hub (the paper's distinguished root process P0). *)

val random_geometric : Rng.t -> n:int -> radius:float -> Vec2.t array * t
(** Positions uniform in the unit square; edge iff within [radius]. *)

val spanning_tree : t -> int -> int array
(** BFS parents rooted at the given node; [parent.(root) = root], -1 when
    unreachable. *)
