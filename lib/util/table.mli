(** Plain-text table rendering for experiment output. *)

val render : headers:string list -> rows:string list list -> unit -> string
(** Markdown-style table: first column left-aligned, the rest right.
    Raises [Invalid_argument] when a row width differs from the header. *)

val print : headers:string list -> rows:string list list -> unit -> unit

val fmt_float : ?digits:int -> float -> string
val fmt_pct : ?digits:int -> float -> string
(** Render a ratio in [0,1] as a percentage. *)
