(* In-memory spans around the benchmark's calls into each layer. A span
   records its name, start and end (monotonic ns), parent span and
   request id. The spans of one request stay in memory until its root
   span closes; they are then folded into per-name totals (count,
   inclusive and self time), and the raw spans of the first
   [keep_requests] requests are kept for the JSONL dump written when the
   replay ends — so memory stays bounded on million-request
   replays. A disabled recorder runs the wrapped calls with no clock
   reads: that is the untraced replay tracing overhead is measured
   against. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (* -1 for a request's root span *)
  start_ns : int64;
  stop_ns : int64;
}

type total = { mutable count : int; mutable incl_ns : float; mutable self_ns : float }

let keep_requests = 200

type t = {
  enabled : bool;
  mutable open_ : int list;  (* open span ids, innermost first *)
  mutable closed : span list;  (* finished spans of the open request *)
  mutable kept : span list;  (* newest first *)
  mutable next : int;
  totals : (string, total) Hashtbl.t;
}

let now () = Monotonic_clock.now ()

let create ~enabled () =
  {
    enabled;
    open_ = [];
    closed = [];
    kept = [];
    next = 0;
    totals = Hashtbl.create 32;
  }

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) (List.sort compare clipped)
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover. Returned in input order as
   (span, self_ns). *)
let self_times spans =
  let children = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      let inside = covered ~lo:s.start_ns ~hi:s.stop_ns kids in
      (s, Int64.to_float (Int64.sub (Int64.sub s.stop_ns s.start_ns) inside)))
    spans

let total t name =
  match Hashtbl.find_opt t.totals name with
  | Some a -> a
  | None ->
      let a = { count = 0; incl_ns = 0.0; self_ns = 0.0 } in
      Hashtbl.replace t.totals name a;
      a

let fold_request t =
  List.iter
    (fun (s, self) ->
      let a = total t s.name in
      a.count <- a.count + 1;
      a.incl_ns <- a.incl_ns +. Int64.to_float (Int64.sub s.stop_ns s.start_ns);
      a.self_ns <- a.self_ns +. self)
    (self_times t.closed);
  (match t.closed with
  | s :: _ when s.req < keep_requests -> t.kept <- t.closed @ t.kept
  | _ -> ());
  t.closed <- []

let with_span t name ~req f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- id :: t.open_;
    let start_ns = now () in
    let finish () =
      let stop_ns = now () in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; name; req; parent; start_ns; stop_ns } :: t.closed;
      if parent < 0 then fold_request t
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let find t name = Hashtbl.find_opt t.totals name
let kept t = List.sort (fun a b -> compare a.id b.id) t.kept

let to_json s =
  Printf.sprintf
    {|{"id":%d,"name":"%s","req":%d,"parent":%d,"start_ns":%Ld,"end_ns":%Ld}|}
    s.id s.name s.req s.parent s.start_ns s.stop_ns
