(* In-memory span recorder for the traced pass.

   A span is a name, a host-clock start and end (monotonic ns), the
   span that caused it, and the domain that recorded it.  Spans are
   recorded from the benchmark's own code, around calls into the
   program's public functions; nothing inside the program is touched.

   Each domain appends to its own buffer (found through domain-local
   storage and registered once under a lock), so sense events running
   on shard domains can record spans without racing the coordinator.
   Nested spans on one domain take their parent from that domain's
   stack of open spans; a span recorded on another domain names its
   parent explicitly ({!leaf}). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  index : int;  (* registration order: the high bits of a span id *)
  tid : int;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable len : int;
  mutable open_spans : int list;  (* innermost first *)
}

type t = {
  generation : int;
  lock : Mutex.t;
  mutable bufs : buf list;  (* newest first *)
}

type span = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (* -1 for a root *)
  tid : int;
}

let generations = Atomic.make 0

let create () =
  { generation = Atomic.fetch_and_add generations 1; lock = Mutex.create ();
    bufs = [] }

(* The calling domain's buffer for [t], tagged with [t]'s generation so a
   later recorder never appends to an older one's buffer. *)
let key : (int * buf) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let buf_of t =
  let cell = Domain.DLS.get key in
  match !cell with
  | Some (g, b) when g = t.generation -> b
  | _ ->
      let b =
        Mutex.protect t.lock (fun () ->
            let b =
              {
                index = List.length t.bufs;
                tid = (Domain.self () :> int);
                names = Array.make 64 "";
                starts = Array.make 64 0;
                stops = Array.make 64 0;
                parents = Array.make 64 0;
                len = 0;
                open_spans = [];
              }
            in
            t.bufs <- b :: t.bufs;
            b)
      in
      cell := Some (t.generation, b);
      b

let id_bits = 32

let grow b =
  let cap = 2 * Array.length b.starts in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.names <- extend b.names "";
  b.starts <- extend b.starts 0;
  b.stops <- extend b.stops 0;
  b.parents <- extend b.parents 0

let append b name ~start ~stop ~parent =
  if b.len = Array.length b.starts then grow b;
  let i = b.len in
  b.names.(i) <- name;
  b.starts.(i) <- start;
  b.stops.(i) <- stop;
  b.parents.(i) <- parent;
  b.len <- i + 1;
  (b.index lsl id_bits) lor i

let enter t name =
  let b = buf_of t in
  let parent = match b.open_spans with p :: _ -> p | [] -> -1 in
  let id = append b name ~start:(now_ns ()) ~stop:(-1) ~parent in
  b.open_spans <- id :: b.open_spans;
  id

let leave t id =
  let stop = now_ns () in
  let b = buf_of t in
  (match b.open_spans with
  | top :: rest when top = id -> b.open_spans <- rest
  | _ -> invalid_arg "Span.leave: not the innermost open span");
  b.stops.(id land ((1 lsl id_bits) - 1)) <- stop

let current t = match (buf_of t).open_spans with p :: _ -> p | [] -> -1

let with_span t name f =
  let id = enter t name in
  Fun.protect ~finally:(fun () -> leave t id) f

let leaf t ~parent name ~start ~stop =
  ignore (append (buf_of t) name ~start ~stop ~parent)

let spans t =
  let bufs = Mutex.protect t.lock (fun () -> List.rev t.bufs) in
  Array.concat
    (List.map
       (fun b ->
         Array.init b.len (fun i ->
             {
               id = (b.index lsl id_bits) lor i;
               name = b.names.(i);
               start_ns = b.starts.(i);
               stop_ns = b.stops.(i);
               parent = b.parents.(i);
               tid = b.tid;
             }))
       bufs)

let duration s = s.stop_ns - s.start_ns

(* Self time: a span's duration minus the durations of its direct
   children.  Children recorded on other domains can overlap the
   parent's own work, so for a parallel region this is an attribution,
   not a busy time. *)
let self_times spans =
  let children = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    spans;
  Array.map
    (fun s ->
      duration s - Option.value ~default:0 (Hashtbl.find_opt children s.id))
    spans

type row = { row_name : string; count : int; self_ns : int }

(* Self time summed by name over the spans inside [root]'s interval
   (root excluded), in first-appearance order. *)
let rows spans ~root =
  let self = self_times spans in
  let order = ref [] and acc = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if s.id <> root.id && s.start_ns >= root.start_ns
         && s.stop_ns <= root.stop_ns
      then
        match Hashtbl.find_opt acc s.name with
        | Some (c, ns) -> Hashtbl.replace acc s.name (c + 1, ns + self.(i))
        | None ->
            order := s.name :: !order;
            Hashtbl.replace acc s.name (1, self.(i)))
    spans;
  List.rev_map
    (fun name ->
      let count, self_ns = Hashtbl.find acc name in
      { row_name = name; count; self_ns })
    !order

let find spans name = Array.find_opt (fun s -> s.name = name) spans

let durations_ns spans name =
  Array.of_seq
    (Seq.filter_map
       (fun s -> if s.name = name then Some (float_of_int (duration s)) else None)
       (Array.to_seq spans))

(* Chrome trace_event JSON ("X" complete events, microsecond floats).
   Spans of one name are capped at [chrome_per_name] so a run with a
   million calls still writes a loadable file; the omitted counts go in
   [otherData]. *)
let chrome_per_name = 2000

let to_chrome spans =
  let b = Buffer.create 65536 in
  let t0 = Array.fold_left (fun m s -> Int.min m s.start_ns) max_int spans in
  let seen = Hashtbl.create 16 in
  let first = ref true in
  Buffer.add_string b "{\"traceEvents\":[";
  Array.iter
    (fun s ->
      let c = Option.value ~default:0 (Hashtbl.find_opt seen s.name) in
      Hashtbl.replace seen s.name (c + 1);
      if c < chrome_per_name then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b "\n{\"name\":";
        Psn_obs.Json.escape_to_buffer b s.name;
        Printf.bprintf b
          ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          s.tid
          (float_of_int (s.start_ns - t0) /. 1e3)
          (float_of_int (duration s) /. 1e3)
          s.id s.parent
      end)
    spans;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{";
  let omitted =
    Hashtbl.fold
      (fun name c acc ->
        if c > chrome_per_name then (name, c - chrome_per_name) :: acc else acc)
      seen []
    |> List.sort compare
  in
  List.iteri
    (fun i (name, c) ->
      if i > 0 then Buffer.add_char b ',';
      Psn_obs.Json.escape_to_buffer b ("omitted:" ^ name);
      Printf.bprintf b ":%d" c)
    omitted;
  Buffer.add_string b "}}\n";
  Buffer.contents b
