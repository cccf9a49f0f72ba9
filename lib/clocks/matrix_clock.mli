(** Matrix clock (extension): tracks knowledge-about-knowledge, enabling
    garbage collection of buffered observations. *)

type t
type stamp = int array array

val create : n:int -> me:int -> t
val size : t -> int
val read : t -> stamp

val vector : t -> int array
(** The process's own vector-clock view (its row). *)

val tick : t -> stamp
val send : t -> stamp
val receive : t -> from:int -> stamp -> unit

val min_known : t -> int -> int
(** [min_known t j]: every process is known to have observed at least this
    many events of process [j]; older buffered observations are dead. *)

(** {2 Row stamps}

    [tick]/[send] copy the full n×n matrix; when only the sender's own
    vector view is piggybacked (the common case), an O(n) row stamp
    carries the same causal information.  Note: row stamps propagate
    first-hand knowledge only, so [min_known] advances more slowly than
    under full-matrix exchange. *)

type row_stamp = int array

val tick_row : t -> row_stamp
val send_row : t -> row_stamp
val receive_row : t -> from:int -> row_stamp -> unit
(** Merge the sender's row into both the [from] row and our own, then
    tick our diagonal. *)

val tick_row_into : Stamp_plane.t -> t -> Stamp_plane.handle
val send_row_into : Stamp_plane.t -> t -> Stamp_plane.handle
val receive_row_from : Stamp_plane.t -> t -> from:int -> Stamp_plane.handle -> unit
