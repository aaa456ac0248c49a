(* The serving benchmark. One run drives a fresh [hppa-serve] over a
   Unix socket with one workload's request list and prints the
   end-to-end metrics; [--trace 1] adds in-process replays of the same
   list through each layer's public functions and prints the per-layer
   metrics instead. See README.md for the workloads and the metrics.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--server EXE]

   The last line of standard output is the JSON result; progress goes
   to standard error. Replays that would warm a process-global memo for
   a later replay run in fresh child processes of this executable
   ([bench.exe phase NAME ...]). *)

module Protocol = Hppa_server.Protocol
module Server = Hppa_server.Server
module Plan = Hppa_server.Plan
module Lru = Hppa_server.Lru
module Pool = Hppa_server.Pool
module Metrics = Hppa_server.Metrics
module Machine = Hppa_machine.Machine
module Strategy = Hppa_plan.Strategy
module Selector = Hppa_plan.Selector
module Obs = Hppa_obs.Obs
module Gen = Perfbench.Gen
module Stats = Perfbench.Stats
module Span = Perfbench.Span
module Check = Perfbench.Check

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let work_dir = ".perfbench"
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

let live_pids : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_pids := List.filter (( <> ) pid) !live_pids

(* Wait up to [grace] seconds for [pid] to exit, then kill it. *)
let wait_or_kill ~grace pid =
  let deadline = now_s () +. grace in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.005;
        loop ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid
    | _ -> live_pids := List.filter (( <> ) pid) !live_pids
    | exception Unix.Unix_error _ -> live_pids := List.filter (( <> ) pid) !live_pids
  in
  loop ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live_pids

(* Children inherit our stderr unless [quiet] (the server's own logs);
   their stdin is [stdin] or /dev/null. *)
let spawn ?(quiet = false) ?stdin argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let input = Option.value stdin ~default:null in
  let pid = Unix.create_process argv.(0) argv input null (if quiet then null else Unix.stderr) in
  Unix.close null;
  live_pids := pid :: !live_pids;
  pid

(* ------------------------------------------------------------------ *)
(* Socket client                                                       *)

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;  (* bytes read but not yet framed *)
  mutable partial : (string list * int) option;
      (* lines of a batch reply so far, lane lines still missing *)
  inflight : int Queue.t;
}

let conn fd = { fd; pending = ""; partial = None; inflight = Queue.create () }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let batch_lanes header =
  match String.rindex_opt header '=' with
  | Some i -> int_of_string_opt (String.sub header (i + 1) (String.length header - i - 1))
  | None -> None

(* Split complete replies off [c.pending]; batch replies are a header
   line plus k lane lines. *)
let frame c =
  let out = ref [] in
  let rec go start =
    match String.index_from_opt c.pending start '\n' with
    | None -> c.pending <- String.sub c.pending start (String.length c.pending - start)
    | Some j ->
        let line = String.sub c.pending start (j - start) in
        (match c.partial with
        | Some (lines, 1) ->
            c.partial <- None;
            out := String.concat "\n" (List.rev (line :: lines)) :: !out
        | Some (lines, k) -> c.partial <- Some (line :: lines, k - 1)
        | None ->
            if Protocol.is_batch_reply line then
              match batch_lanes line with
              | Some k when k > 0 -> c.partial <- Some ([ line ], k)
              | _ -> out := line :: !out
            else out := line :: !out);
        go (j + 1)
  in
  go 0;
  List.rev !out

let chunk = Bytes.create 65536

let read_replies c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failf "server closed the connection"
  | n ->
      c.pending <- c.pending ^ Bytes.sub_string chunk 0 n;
      frame c

let rec await_reply c =
  match read_replies c with [] -> await_reply c | r :: _ -> r

let request c line =
  write_all c.fd (line ^ "\n");
  await_reply c

(* Closed loop over [conns], each holding at most [depth] requests in
   flight; request i goes to whichever connection frees a slot first.
   Returns per-request latency in microseconds (send to reply). *)
let closed_loop conns ~depth lines ~on_reply =
  let n = Array.length lines in
  let lat = Array.make n 0.0 and sent = Array.make n 0.0 in
  let next = ref 0 and completed = ref 0 in
  let fill c =
    let b = Buffer.create 1024 and first = !next in
    while Queue.length c.inflight < depth && !next < n do
      Buffer.add_string b lines.(!next);
      Buffer.add_char b '\n';
      Queue.push !next c.inflight;
      incr next
    done;
    if !next > first then begin
      let t = now_s () in
      Array.fill sent first (!next - first) t;
      write_all c.fd (Buffer.contents b)
    end
  in
  Array.iter fill conns;
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  while !completed < n do
    let ready, _, _ = Unix.select fds [] [] 60.0 in
    if ready = [] then failf "no reply for 60 s";
    Array.iter
      (fun c ->
        if List.mem c.fd ready then begin
          let replies = read_replies c in
          let t = now_s () in
          List.iter
            (fun r ->
              let i = Queue.pop c.inflight in
              lat.(i) <- (t -. sent.(i)) *. 1e6;
              on_reply i r;
              incr completed)
            replies;
          fill c
        end)
      conns
  done;
  lat

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)

type server = { pid : int; sock : string; control : conn; setup_s : float }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Spawn a one-shard server and time spawn to first PING reply. The
   connect is retried every 0.5 ms; there is no fixed sleep. *)
let start_server exe sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let t0 = now_s () in
  let pid = spawn ~quiet:true [| exe; "serve"; "--socket"; sock; "--shards"; "1" |] in
  let rec ready () =
    match connect sock with
    | Some fd -> fd
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live_pids := List.filter (( <> ) pid) !live_pids;
            failf "server exited before accepting connections");
        if now_s () -. t0 > 60.0 then failf "server not ready after 60 s";
        Unix.sleepf 0.0005;
        ready ()
  in
  let control = conn (ready ()) in
  let pong = request control "PING" in
  let setup_s = now_s () -. t0 in
  if pong <> "OK pong" then failf "PING answered %S" pong;
  { pid; sock; control; setup_s }

let stop_server s =
  (try Unix.close s.control.fd with Unix.Unix_error _ -> ());
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait_or_kill ~grace:10.0 s.pid;
  try Unix.unlink s.sock with Unix.Unix_error _ -> ()

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failf "no VmHWM for pid %d" pid
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Cache counters from a STATS reply: hits, misses, evictions. *)
let cache_counters c =
  let r = request c "STATS" in
  let get k =
    match Option.bind (Check.field (" " ^ r) k) int_of_string_opt with
    | Some v -> v
    | None -> failf "STATS reply lacks %s: %S" k r
  in
  (get "cache_hits", get "cache_misses", get "cache_evictions")

(* ------------------------------------------------------------------ *)
(* Request helpers shared by the replays                               *)

let hppa_op = function
  | Protocol.W64_mul -> Hppa_w64.Mul
  | Protocol.W64_div -> Hppa_w64.Div
  | Protocol.W64_rem -> Hppa_w64.Rem

let parse_exn line =
  match Protocol.parse line with Ok r -> r | Error e -> failf "bad request %S: %s" line e

let sgn signed = if signed then Strategy.Signed else Strategy.Unsigned

(* The selector request a plan-producing request dispatches on, if any. *)
let strategy_request = function
  | Protocol.Op { kernel = Protocol.Kmul; lanes = [ Protocol.Const n ]; batch = false } ->
      Some (Strategy.mul_const n)
  | Protocol.Op { kernel = Protocol.Kdiv; lanes = [ Protocol.Const d ]; batch = false } ->
      Some (Strategy.div_const (if d > 0l then Strategy.Unsigned else Strategy.Signed) d)
  | Protocol.Op { kernel = Protocol.Kw64 op; lanes = Protocol.Pair { signed; _ } :: _; _ } -> (
      match op with
      | Protocol.W64_mul -> Some (Strategy.w64_mul (sgn signed))
      | Protocol.W64_div -> Some (Strategy.w64_div (sgn signed))
      | Protocol.W64_rem -> Some (Strategy.w64_rem (sgn signed)))
  | Protocol.Op { kernel = Protocol.Kdivl; _ } -> Some Strategy.w64_divl
  | _ -> None

let is_plan_request = function
  | Protocol.Op { kernel = Protocol.Kmul | Protocol.Kdiv; _ } -> true
  | _ -> false

(* Timed MUL/DIV requests that miss the cache in serving order: the
   distinct timed keys not already sent during warm-up. *)
let timed_misses (g : Gen.t) =
  let seen = Hashtbl.create 1024 in
  Array.iter (fun l -> Hashtbl.replace seen l ()) g.Gen.warmup;
  Array.to_list g.Gen.timed
  |> List.filter_map (fun l ->
         if Hashtbl.mem seen l then None
         else (
           Hashtbl.replace seen l ();
           let r = parse_exn l in
           if is_plan_request r then Some r else None))

(* (entry, args) of every kernel call the executed requests make. *)
let kernel_calls lines =
  Array.to_list lines
  |> List.concat_map (fun l ->
         match parse_exn l with
         | Protocol.Eval (entry, args) -> [ (entry, args) ]
         | Protocol.Op { kernel = Protocol.Kw64 op; lanes; _ } ->
             List.filter_map
               (function
                 | Protocol.Pair { signed; x; y } ->
                     Some (Hppa_w64.entry ~signed (hppa_op op), Hppa_w64.operands x y)
                 | _ -> None)
               lanes
         | Protocol.Op { kernel = Protocol.Kdivl; lanes; _ } ->
             List.filter_map
               (function
                 | Protocol.Triple { xhi; xlo; y } ->
                     Some (Hppa_w64.divl_entry, Hppa_w64.operands_divl ~xhi ~xlo y)
                 | _ -> None)
               lanes
         | _ -> [])

(* ------------------------------------------------------------------ *)
(* Phases: each runs in a fresh process and returns named numbers      *)

type result = {
  values : (string * float) list;
  samples : float array;  (* per timed request, where a phase has them *)
  replies : (string * string) list;  (* distinct timed line -> reply *)
  targets : int list list;  (* chain constants per timed MUL/DIV miss *)
}

let no_result = { values = []; samples = [||]; replies = []; targets = [] }
let value r k = match List.assoc_opt k r.values with Some v -> v | None -> 0.0

let server_config = { Server.Config.default with Server.Config.shards = 1 }

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* Real Server.respond on a fresh one-shard server: the byte-identity
   oracle, per-request respond time, the METRICS scrape and the pool
   handoff. After its own prefill it waits for end of file on stdin, so
   the parent can start the timed part once the machine is otherwise
   idle. *)
let phase_respond (g : Gen.t) =
  let srv = Server.create server_config in
  Array.iter (fun l -> ignore (Server.respond srv l)) g.Gen.warmup;
  ignore (Unix.read Unix.stdin (Bytes.create 1) 0 1);
  let first = Hashtbl.create 1024 in
  let order = ref [] in
  let inconsistent = ref 0 in
  let us =
    Array.map
      (fun l ->
        let r, dt = time (fun () -> Server.respond srv l) in
        (match Hashtbl.find_opt first l with
        | None ->
            Hashtbl.replace first l r;
            order := l :: !order
        | Some r0 -> if r0 <> r then incr inconsistent);
        dt *. 1e6)
      g.Gen.timed
  in
  let scrape =
    Array.init 21 (fun _ -> snd (time (fun () -> ignore (Server.metrics_payload srv))) *. 1e6)
  in
  Server.shutdown_pool srv;
  let pool = Pool.create ~workers:1 ~init:(fun () -> ()) () in
  let handoff =
    Array.init 2000 (fun _ -> snd (time (fun () -> Pool.submit pool (fun () -> ()))) *. 1e6)
  in
  Pool.shutdown pool;
  {
    no_result with
    values =
      [
        ("respond_mean_us", Stats.mean us);
        ("respond_total_s", Array.fold_left ( +. ) 0.0 us *. 1e-6);
        ("inconsistent", float_of_int !inconsistent);
        ("scrape_us", Stats.median scrape);
        ("handoff_us", Stats.median handoff);
      ];
    samples = us;
    replies = List.rev_map (fun l -> (l, Hashtbl.find first l)) !order;
  }

(* The serving path composed from public layer functions, mirroring
   Server.respond (parse, cache key, LRU probe, plan on miss, LRU add,
   metrics record) with plan calls made inline instead of through the
   pool — the handoff is measured on its own. *)
type composed = {
  tr : Span.t;
  lru : Lru.t;
  metrics : Metrics.t;
  obs : Obs.Registry.t;
  mach : Machine.t Lazy.t;
  mutable batch_plans : int;
}

let fuel = server_config.Server.Config.fuel

let compute c ~req kernel misses =
  let sp name f = Span.with_span c.tr name ~req f in
  let obs = c.obs in
  match ((kernel : Protocol.kernel), misses) with
  | (Protocol.Kmul | Protocol.Kdiv), _ ->
      List.map
        (fun (key, lane) ->
          match (kernel, lane) with
          | Protocol.Kmul, Protocol.Const n -> (key, sp "plan.mul" (fun () -> Plan.mul ~obs n))
          | _, Protocol.Const d -> (key, sp "plan.div" (fun () -> Plan.div ~obs d))
          | _ -> (key, Error "lane shape"))
        misses
  | Protocol.Kw64 op, [ (key, Protocol.Pair { signed; x; y }) ] ->
      let mach = Lazy.force c.mach in
      [ (key, sp "plan.w64" (fun () -> Plan.w64 ~obs mach ~fuel (hppa_op op) ~signed x y)) ]
  | Protocol.Kw64 op, _ ->
      let mach = Lazy.force c.mach in
      let signed, pairs =
        List.fold_right
          (fun (_, lane) (s, acc) ->
            match lane with
            | Protocol.Pair { signed; x; y } -> (signed, (x, y) :: acc)
            | _ -> (s, acc))
          misses (false, [])
      in
      c.batch_plans <- c.batch_plans + 1;
      let rs =
        sp "plan.w64_batch" (fun () -> Plan.w64_batch ~obs mach ~fuel (hppa_op op) ~signed pairs)
      in
      List.map2 (fun (key, _) r -> (key, r)) misses rs
  | Protocol.Kdivl, [ (key, Protocol.Triple { xhi; xlo; y }) ] ->
      let mach = Lazy.force c.mach in
      [ (key, sp "plan.divl" (fun () -> Plan.divl ~obs mach ~fuel ~xhi ~xlo y)) ]
  | Protocol.Kdivl, _ -> List.map (fun (key, _) -> (key, Error "no workload sends W64DIVLB")) misses

let composed_respond c ~req line =
  let sp name f = Span.with_span c.tr name ~req f in
  sp "server.respond" (fun () ->
      let t0 = now_s () in
      let parsed = sp "protocol.parse" (fun () -> Protocol.parse line) in
      let reply =
        match parsed with
        | Error d -> Protocol.err d
        | Ok (Protocol.Eval (entry, args)) -> (
            let mach = Lazy.force c.mach in
            match sp "plan.eval" (fun () -> Plan.eval mach ~fuel entry args) with
            | Ok p -> Protocol.ok p
            | Error d -> Protocol.err d)
        | Ok (Protocol.Op { kernel; batch; lanes } as req_) ->
            let keys = sp "protocol.key" (fun () -> List.map (Protocol.lane_key kernel) lanes) in
            let keyed =
              List.map2
                (fun key lane -> (key, lane, sp "lru.find" (fun () -> Lru.find c.lru key)))
                keys lanes
            in
            let seen = Hashtbl.create 16 in
            let misses =
              List.filter_map
                (fun (key, lane, hit) ->
                  if hit = None && not (Hashtbl.mem seen key) then (
                    Hashtbl.replace seen key ();
                    Some (key, lane))
                  else None)
                keyed
            in
            let computed = if misses = [] then [] else compute c ~req kernel misses in
            List.iter
              (fun (key, r) ->
                match r with
                | Ok (payload, _) -> sp "lru.add" (fun () -> Lru.add c.lru key payload)
                | Error _ -> ())
              computed;
            let lane_line (key, _, hit) =
              match hit with
              | Some payload -> Protocol.ok payload
              | None -> (
                  match List.assoc_opt key computed with
                  | Some (Ok (payload, _)) -> Protocol.ok payload
                  | Some (Error d) -> Protocol.err d
                  | None -> Protocol.err "lane not computed")
            in
            if batch then
              String.concat "\n"
                (Protocol.ok (Printf.sprintf "%s k=%d" (Protocol.verb req_) (List.length lanes))
                :: List.map lane_line keyed)
            else String.concat "\n" (List.map lane_line keyed)
        | Ok _ -> Protocol.err "unsupported in the replay"
      in
      let verb = match parsed with Ok r -> Some (Protocol.verb r) | Error _ -> None in
      let us = (now_s () -. t0) *. 1e6 in
      sp "obs.record" (fun () ->
          Metrics.record ?verb c.metrics ~error:(Protocol.is_err reply) ~us);
      reply)

let span_names =
  [ "server.respond"; "protocol.parse"; "protocol.key"; "lru.find"; "lru.add"; "obs.record";
    "plan.mul"; "plan.div"; "plan.eval"; "plan.w64"; "plan.w64_batch"; "plan.divl" ]

(* Per-name span totals as result values: NAME.count, NAME.incl_ns and
   NAME.self_ns. *)
let span_values tr names =
  List.concat_map
    (fun name ->
      match Span.find tr name with
      | Some t ->
          [ (name ^ ".count", float_of_int t.Span.count); (name ^ ".incl_ns", t.Span.incl_ns);
            (name ^ ".self_ns", t.Span.self_ns) ]
      | None -> [])
    names

let write_spans phase tr =
  let oc = open_out (Filename.concat work_dir (Printf.sprintf "spans-%s.jsonl" phase)) in
  List.iter
    (fun s ->
      output_string oc (Span.to_json s);
      output_char oc '\n')
    (Span.kept tr);
  close_out oc

(* The composed replay, traced or not. Warm-up requests run untraced. *)
let phase_serve ~traced (g : Gen.t) =
  let obs = Obs.Registry.create () in
  let c =
    {
      tr = Span.create ~enabled:false ();
      lru = Lru.create ~capacity:server_config.Server.Config.cache_capacity;
      metrics = Metrics.create ~registry:obs ();
      obs;
      mach = lazy (Hppa.Millicode.machine ());
      batch_plans = 0;
    }
  in
  Array.iteri (fun i l -> ignore (composed_respond c ~req:(-1 - i) l)) g.Gen.warmup;
  let c = { c with tr = Span.create ~enabled:traced (); batch_plans = 0 } in
  let hits0 = Lru.hits c.lru and misses0 = Lru.misses c.lru and ev0 = Lru.evictions c.lru in
  let translations () =
    if Lazy.is_val c.mach then (Machine.profile (Lazy.force c.mach)).Machine.translations else 0
  in
  let tr0 = translations () in
  let minor0 = Gc.minor_words () in
  let replies = Hashtbl.create 1024 in
  let (), wall =
    time (fun () ->
        Array.iteri
          (fun i l ->
            let r = composed_respond c ~req:i l in
            if not (Hashtbl.mem replies l) then Hashtbl.replace replies l r)
          g.Gen.timed)
  in
  let minor = Gc.minor_words () -. minor0 in
  let n = float_of_int (Array.length g.Gen.timed) in
  let hits = Lru.hits c.lru - hits0 and misses = Lru.misses c.lru - misses0 in
  if traced then write_spans "serve" c.tr;
  {
    no_result with
    values =
      [
        ("wall_s", wall);
        ("minor_kwords_per_req", minor /. n /. 1000.0);
        ( "hit_ratio",
          if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) );
        ("evictions", float_of_int (Lru.evictions c.lru - ev0));
        ("translations_per_req", float_of_int (translations () - tr0 + c.batch_plans) /. n);
      ]
      @ span_values c.tr span_names;
    replies = Hashtbl.fold (fun l r acc -> (l, r) :: acc) replies [];
  }

(* Cold-plan breakdown. Each replay runs in a fresh process so no
   earlier replay has warmed the process-global chain memo:
   - planners: the constants the planners of the timed MUL/DIV misses
     hand to Chain_rules.find (untimed);
   - chain: Chain_rules.find on those constants (a leaf), then
     Div_const.plan again with the memo now warm, which is its self
     time;
   - select: the planners untraced (warming the memo), then
     Selector.choose, Strategy.digest and Strategy.certify, which is
     their time with chain search already done. W64 requests, which
     select on every request, go through the same three calls. *)

let rec div_targets = function
  | Hppa.Div_const.Reciprocal (m, _) -> [ Int64.to_int m.Hppa.Div_magic.a ]
  | Hppa.Div_const.Even_split (_, s) -> div_targets s
  | _ -> []

(* The planner call a MUL/DIV request makes and the chain constants it
   searched; [None] for other requests. *)
let planner = function
  | Protocol.Op { kernel = Protocol.Kmul; lanes = [ Protocol.Const n ]; _ } ->
      Some
        ( "mul_const.plan",
          fun () ->
            let p = Hppa.Mul_const.plan n in
            if p.Hppa.Mul_const.chain = None then [] else [ abs (Int32.to_int n) ] )
  | Protocol.Op { kernel = Protocol.Kdiv; lanes = [ Protocol.Const d ]; _ } ->
      Some
        ( "div_const.plan",
          fun () ->
            let p =
              if d > 0l then Hppa.Div_const.plan_unsigned d else Hppa.Div_const.plan_signed d
            in
            div_targets p.Hppa.Div_const.strategy )
  | _ -> None

let warm_planners (g : Gen.t) =
  Array.iter
    (fun l -> Option.iter (fun (_, f) -> ignore (f ())) (planner (parse_exn l)))
    g.Gen.warmup

let phase_planners (g : Gen.t) =
  let targets =
    List.map (fun r -> match planner r with Some (_, f) -> f () | None -> []) (timed_misses g)
  in
  { no_result with targets }

let phase_chain (g : Gen.t) targets =
  warm_planners g;
  let tr = Span.create ~enabled:true () in
  let words = ref 0.0 in
  let misses = timed_misses g in
  if List.length targets <> List.length misses then failf "chain targets do not match the misses";
  List.iteri
    (fun req (r, ts) ->
      List.iter
        (fun t ->
          let w0 = Gc.minor_words () in
          ignore (Span.with_span tr "chain_rules.find" ~req (fun () -> Hppa.Chain_rules.find t));
          words := !words +. (Gc.minor_words () -. w0))
        ts;
      match planner r with
      | Some ("div_const.plan", f) -> ignore (Span.with_span tr "div_const.plan_self" ~req f)
      | Some _ | None -> ())
    (List.combine misses targets);
  {
    no_result with
    values =
      ("minor_words", !words) :: span_values tr [ "chain_rules.find"; "div_const.plan_self" ];
  }

(* Requests that run the selector: MUL/DIV only on a miss, W64 ones
   every time. *)
let selecting (g : Gen.t) =
  timed_misses g
  @ (Array.to_list g.Gen.timed
    |> List.filter_map (fun l ->
           let r = parse_exn l in
           if is_plan_request r || strategy_request r = None then None else Some r))

let phase_select (g : Gen.t) =
  let misses = timed_misses g in
  let requests = selecting g in
  let obs = Obs.Registry.create () in
  let choose sreq = Selector.choose ~obs sreq in
  Array.iter
    (fun l -> Option.iter (fun s -> ignore (choose s)) (strategy_request (parse_exn l)))
    g.Gen.warmup;
  List.iter (fun r -> Option.iter (fun (_, f) -> ignore (f ())) (planner r)) misses;
  let tr = Span.create ~enabled:true () in
  let choices =
    List.mapi
      (fun req r ->
        Option.map
          (fun sreq ->
            match Span.with_span tr "selector.choose" ~req (fun () -> choose sreq) with
            | Ok choice ->
                ignore
                  (Span.with_span tr "strategy.digest" ~req (fun () ->
                       Strategy.digest choice.Selector.emission));
                (req, sreq, choice)
            | Error e -> failf "selector: %s" e)
          (strategy_request r))
      requests
  in
  List.iter
    (Option.iter (fun (req, sreq, choice) ->
         ignore
           (Span.with_span tr "strategy.certify" ~req (fun () ->
                Strategy.certify sreq choice.Selector.emission))))
    choices;
  { no_result with values = span_values tr [ "selector.choose"; "strategy.digest"; "strategy.certify" ] }

(* Simulated cycles per microsecond on each execution path, over the
   kernel calls the workload's executed requests make. *)
let phase_machine (g : Gen.t) =
  let calls = Array.of_list (kernel_calls g.Gen.timed) in
  let prog = Hppa.Millicode.resolved () in
  let translate =
    Array.init 5 (fun _ -> snd (time (fun () -> ignore (Machine.Batch.create ~lanes:16 prog))) *. 1e6)
  in
  let mips run =
    if Array.length calls = 0 then 0.0
    else begin
      ignore (run ());
      let best = ref 0.0 in
      for _ = 1 to 3 do
        let cycles, dt = time run in
        best := Float.max !best (float_of_int cycles /. (dt *. 1e6))
      done;
      !best
    end
  in
  let scalar engine =
    let m =
      Hppa.Millicode.machine ~config:{ Machine.Config.default with Machine.Config.engine } ()
    in
    fun () ->
      Array.fold_left
        (fun acc (entry, args) ->
          Machine.reset m;
          acc + snd (Machine.call_cycles m entry ~args))
        0 calls
  in
  let batch width calls =
    let b = Machine.Batch.create ~lanes:width prog in
    fun () ->
      let total = ref 0 and i = ref 0 in
      let n = Array.length calls in
      while !i < n do
        let entry = fst calls.(!i) in
        let j = ref !i in
        while !j < n && !j - !i < width && fst calls.(!j) = entry do
          incr j
        done;
        let args = Array.init (!j - !i) (fun k -> snd calls.(!i + k)) in
        Machine.Batch.call b entry ~args;
        Array.iteri (fun lane _ -> total := !total + Machine.Batch.cycles b ~lane) args;
        i := !j
      done;
      !total
  in
  (* a batch takes consecutive calls to one entry, so group them *)
  let by_entry = Array.copy calls in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) by_entry;
  {
    no_result with
    values =
      [
        ("translate_us", Stats.median translate);
        ("interp_mips", mips (scalar false));
        ("engine_mips", mips (scalar true));
        ("batch1_mips", mips (batch 1 calls));
        ("batch16_mips", mips (batch 16 by_entry));
      ];
  }

let run_phase name (g : Gen.t) ~targets =
  let targets : int list list = targets in
  match name with
  | "respond" -> phase_respond g
  | "serve" -> phase_serve ~traced:true g
  | "serve_untraced" -> phase_serve ~traced:false g
  (* the breakdown phases have nothing to time on a workload whose timed
     requests never plan or select *)
  | "planners" -> if timed_misses g = [] then no_result else phase_planners g
  | "chain" -> if targets = [] then no_result else phase_chain g targets
  | "select" -> if selecting g = [] then no_result else phase_select g
  | "machine" -> phase_machine g
  | _ -> failf "unknown phase %s" name

(* Start [name] in a fresh child process; [finish_phase] waits for it
   and reads back its result. The child's stdin is a pipe that
   [release_phase] closes. *)
type phase = {
  label : string;
  child : int;
  out : string;
  tfile : string;
  mutable go : Unix.file_descr option;
}

let start_phase ~workload ~seed ~seconds ?(targets = []) name =
  let out = Filename.concat work_dir (Printf.sprintf "phase-%d-%s.bin" (Unix.getpid ()) name) in
  let tfile = out ^ ".targets" in
  let oc = open_out_bin tfile in
  Marshal.to_channel oc (targets : int list list) [];
  close_out oc;
  let go_r, go_w = Unix.pipe ~cloexec:true () in
  let pid =
    spawn ~stdin:go_r
      [| Sys.executable_name; "phase"; name; "--workload"; Gen.name workload; "--seed";
         string_of_int seed; "--seconds"; string_of_int seconds; "--out"; out |]
  in
  Unix.close go_r;
  { label = name; child = pid; out; tfile; go = Some go_w }

let release_phase p =
  Option.iter Unix.close p.go;
  p.go <- None

let finish_phase ({ label = name; child; out; tfile; _ } as p) =
  release_phase p;
  reap child;
  let ic = try open_in_bin out with Sys_error _ -> failf "phase %s produced no result" name in
  let (r : (result, string) Stdlib.result) = Marshal.from_channel ic in
  close_in ic;
  Sys.remove out;
  Sys.remove tfile;
  match r with Ok r -> r | Error e -> failf "phase %s: %s" name e

let child_phase ~workload ~seed ~seconds ?targets name =
  finish_phase (start_phase ~workload ~seed ~seconds ?targets name)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

(* Set-up samples per run: before the warm-up (the last of these
   serves the run), between the warm-up and the timed phase, and after
   the timed phase, so their median spans the run's host conditions. *)
let setup_before, setup_between, setup_after = (5, 3, 3)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  problems : string list;
}

(* Ledger of per-seed determinism facts; a rerun of the same build with
   the same workload, seed and length must reproduce them exactly. The
   key carries digests of the server and benchmark executables, so a
   rebuilt program starts a fresh record instead of failing on an
   intended change. *)
let ledger_check key facts =
  let path = Filename.concat work_dir "ledger.tsv" in
  let lines =
    if Sys.file_exists path then
      In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'
    else []
  in
  let prefix = key ^ "\t" in
  let np = String.length prefix in
  match
    List.find_opt (fun l -> String.length l > np && String.sub l 0 np = prefix) lines
  with
  | Some l when l <> prefix ^ facts ->
      [ Printf.sprintf "determinism: %s was %s, now %s" key (String.sub l np (String.length l - np)) facts ]
  | Some _ -> []
  | None ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (prefix ^ facts ^ "\n");
      close_out oc;
      []

let run ~exe ~workload ~seed ~seconds ~trace =
  let g = Gen.generate workload ~seed ~seconds in
  let digest = Gen.digest g in
  if Gen.digest (Gen.generate workload ~seed ~seconds) <> digest then
    failf "request list generation is not deterministic";
  let shape = Gen.shape workload in
  let n = Array.length g.Gen.timed in
  log "perfbench: %s seed=%d requests=%d warmup=%d conns=%d depth=%d digest=%s"
    (Gen.name workload) seed n (Array.length g.Gen.warmup) shape.Gen.conns shape.Gen.depth digest;
  (* set-up: spawn -> first PING *)
  let setups = ref [] in
  let spawn_sample () =
    let k = List.length !setups in
    let s = start_server exe (Filename.concat work_dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) k)) in
    setups := s.setup_s :: !setups;
    s
  in
  let sample_setups k =
    for _ = 1 to k do
      stop_server (spawn_sample ())
    done
  in
  sample_setups (setup_before - 1);
  let srv = spawn_sample () in
  (* The in-process oracle (a fresh one-shard server answering through
     Server.respond) runs its own prefill on the second core while the
     served warm-up runs, then times the timed list once the warm-up is
     over; the timed phase waits for it to finish. *)
  let oracle = start_phase ~workload ~seed ~seconds "respond" in
  (* warm-up, timed separately *)
  let warm_replies = Array.make (Array.length g.Gen.warmup) "" in
  let (_ : float array), warmup_s =
    time (fun () ->
        closed_loop [| srv.control |] ~depth:shape.Gen.depth g.Gen.warmup ~on_reply:(fun i r ->
            warm_replies.(i) <- r))
  in
  let oracle = finish_phase oracle in
  log "perfbench: in-process Server.respond over the timed list took %.3f s"
    (value oracle "respond_total_s");
  sample_setups setup_between;
  (* timed phase *)
  let conns =
    Array.init shape.Gen.conns (fun k ->
        if k = 0 then srv.control
        else match connect srv.sock with Some fd -> conn fd | None -> failf "connect failed")
  in
  let h0, m0, _ = cache_counters srv.control in
  let distinct = Hashtbl.create 1024 in
  let replies = Array.make n "" in
  let first_of = Array.make n (-1) in
  Array.iteri
    (fun i l ->
      match Hashtbl.find_opt distinct l with
      | Some j -> first_of.(i) <- j
      | None ->
          Hashtbl.replace distinct l i;
          first_of.(i) <- i)
    g.Gen.timed;
  (* replies are kept once per distinct line; a later reply to the same
     line must repeat it byte for byte *)
  let inconsistent = Array.make n false in
  let lat, wall =
    time (fun () ->
        closed_loop conns ~depth:shape.Gen.depth g.Gen.timed ~on_reply:(fun i r ->
            let j = first_of.(i) in
            if replies.(j) = "" then replies.(j) <- r
            else if replies.(j) <> r then inconsistent.(i) <- true))
  in
  let h1, m1, _ = cache_counters srv.control in
  let rss = vm_hwm_mb srv.pid in
  Array.iteri (fun k c -> if k > 0 then Unix.close c.fd) conns;
  stop_server srv;
  sample_setups setup_after;
  let setups = Array.of_list (List.rev !setups) in
  log "perfbench: setup samples %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setups)));
  let hit_ratio =
    if h1 - h0 + (m1 - m0) = 0 then 0.0
    else float_of_int (h1 - h0) /. float_of_int (h1 - h0 + (m1 - m0))
  in
  (* verification, after the timed phase *)
  let expected = Hashtbl.create 1024 in
  List.iter (fun (l, r) -> Hashtbl.replace expected l r) oracle.replies;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun i bad -> if bad then problem "%S: reply differs from an earlier reply" g.Gen.timed.(i))
    inconsistent;
  if value oracle "inconsistent" > 0.0 then problem "in-process replies are not repeatable";
  Array.iteri
    (fun i r ->
      match Check.reply g.Gen.warmup.(i) r with
      | Ok () -> ()
      | Error e -> problem "warm-up %S: %s" g.Gen.warmup.(i) e)
    warm_replies;
  let good = Array.make n false in
  Hashtbl.iter
    (fun l i ->
      let r = replies.(i) in
      match Hashtbl.find_opt expected l with
      | Some want when want <> r -> problem "%S: reply differs from Server.respond" l
      | None -> problem "%S: no in-process reply" l
      | Some _ -> (
          match Check.reply l r with
          | Ok () -> good.(i) <- true
          | Error e -> problem "%S: %s" l e))
    distinct;
  let ok = ref 0 and cycles = ref 0 and lanes = ref 0 in
  let per_line = Array.map (fun r -> if r = "" then [] else Check.cycles r) replies in
  Array.iteri
    (fun i j ->
      if good.(j) && not inconsistent.(i) then incr ok;
      List.iter
        (fun c ->
          cycles := !cycles + c;
          incr lanes)
        per_line.(j))
    first_of;
  let ok = !ok in
  let sim_cycles_mean = float_of_int !cycles /. float_of_int (max 1 !lanes) in
  (* determinism self-checks *)
  let want_hit = match workload with Gen.Warm_zipf -> 1.0 | Gen.Cold32 | Gen.Exec_mix -> 0.0 in
  if hit_ratio <> want_hit then problem "timed-phase hit ratio %.6f, want %.1f" hit_ratio want_hit;
  List.iter (fun p -> problem "%s" p)
    (ledger_check
       (Printf.sprintf "%s\t%s\t%s\t%d\t%d"
          (Digest.to_hex (Digest.file exe))
          (Digest.to_hex (Digest.file Sys.executable_name))
          (Gen.name workload) seed seconds)
       (Printf.sprintf "%s\t%.17g\t%.17g" digest sim_cycles_mean hit_ratio));
  let sorted = Stats.sorted lat in
  let tail_p = Stats.tail_percentile n in
  let p50 = Stats.percentile_sorted sorted 0.5 in
  let segments, tail = Stats.segmented_tail lat tail_p in
  log
    "perfbench: timed %.3f s, %d/%d ok, tail = p%g (%d samples beyond), median of %d segments, \
     warm-up %.3f s"
    wall ok n (tail_p *. 100.0) (Stats.beyond ~n tail_p) segments warmup_s;
  (* latency by verb, to see where p50 and the tail fall among cost modes *)
  let by_verb = Hashtbl.create 8 in
  Array.iteri
    (fun i l ->
      let v = List.hd (String.split_on_char ' ' g.Gen.timed.(i)) in
      Hashtbl.replace by_verb v (l :: Option.value (Hashtbl.find_opt by_verb v) ~default:[]))
    lat;
  Hashtbl.iter
    (fun v ls ->
      let a = Stats.sorted (Array.of_list ls) in
      log "perfbench:   %-9s n=%-7d p10=%.0f p50=%.0f p90=%.0f max=%.0f us" v (Array.length a)
        (Stats.percentile_sorted a 0.1) (Stats.percentile_sorted a 0.5)
        (Stats.percentile_sorted a 0.9) a.(Array.length a - 1))
    by_verb;
  let e2e =
    [
      ("throughput_rps", float_of_int ok /. wall, "req/s");
      ("latency_p50_us", p50, "us");
      ("latency_tail_us", tail, "us");
      ("ok_rate", float_of_int ok /. float_of_int n, "ratio");
      ("sim_cycles_mean", sim_cycles_mean, "cycles");
      ("server_rss_mb", rss, "MB");
      ("setup_s", Stats.median setups, "s");
    ]
  in
  let metrics =
    if not trace then e2e
    else begin
      let respond = oracle in
      let serve = child_phase ~workload ~seed ~seconds "serve" in
      let untraced = child_phase ~workload ~seed ~seconds "serve_untraced" in
      let planners = child_phase ~workload ~seed ~seconds "planners" in
      let chain = child_phase ~workload ~seed ~seconds ~targets:planners.targets "chain" in
      let select = child_phase ~workload ~seed ~seconds "select" in
      let machine = child_phase ~workload ~seed ~seconds "machine" in
      List.iter
        (fun (l, r) ->
          match Hashtbl.find_opt expected l with
          | Some want when want = r -> ()
          | _ -> problem "%S: composed replay reply differs from Server.respond" l)
        serve.replies;
      let incl r name = value r (name ^ ".incl_ns") in
      let count r name = value r (name ^ ".count") in
      let per_call total calls = if calls = 0.0 then 0.0 else total /. calls in
      (* mean inclusive time per call of span [name], in ns / [scale] *)
      let mean ?(scale = 1.0) r name = per_call (incl r name) (count r name) /. scale in
      let respond_total = incl serve "server.respond" in
      let share x = if respond_total = 0.0 then 0.0 else x /. respond_total in
      let finds = count chain "chain_rules.find" in
      (* Selector.choose runs the Div_const planners itself, so
         div_const.plan_self is already inside it *)
      let search_ns =
        incl chain "chain_rules.find" +. incl select "selector.choose"
        +. incl select "strategy.digest"
      in
      let exec_ns =
        List.fold_left (fun a k -> a +. incl serve k) 0.0
          [ "plan.eval"; "plan.w64"; "plan.w64_batch"; "plan.divl" ]
      in
      (* client latency minus in-process respond time, paired per request *)
      let event_loop = Array.mapi (fun i l -> l -. respond.samples.(i)) lat in
      [
        ("protocol.parse_ns", mean serve "protocol.parse", "ns");
        ("protocol.key_ns", mean serve "protocol.key", "ns");
        ("lru.find_ns", mean serve "lru.find", "ns");
        ("lru.add_ns", mean serve "lru.add", "ns");
        ("lru.hit_ratio", value serve "hit_ratio", "ratio");
        ("lru.evictions", value serve "evictions", "count");
        ("server.respond_us", value respond "respond_mean_us", "us");
        ("server.event_loop_us", Stats.median event_loop, "us");
        ("server.warmup_s", warmup_s, "s");
        ("pool.handoff_us", value respond "handoff_us", "us");
        ("obs.record_ns", mean serve "obs.record", "ns");
        ("obs.scrape_us", value respond "scrape_us", "us");
        ("chain_rules.find_us", mean ~scale:1e3 chain "chain_rules.find", "us");
        ("chain_rules.alloc_kwords", per_call (value chain "minor_words") finds /. 1e3, "kwords");
        ("chain_rules.calls_per_req", finds /. float_of_int n, "count");
        ("div_const.plan_us", mean ~scale:1e3 chain "div_const.plan_self", "us");
        ("selector.choose_us", mean ~scale:1e3 select "selector.choose", "us");
        ("strategy.certify_us", mean ~scale:1e3 select "strategy.certify", "us");
        ("strategy.digest_us", mean ~scale:1e3 select "strategy.digest", "us");
        ("plan.mul_us", mean ~scale:1e3 serve "plan.mul", "us");
        ("plan.div_us", mean ~scale:1e3 serve "plan.div", "us");
        ("plan.eval_us", mean ~scale:1e3 serve "plan.eval", "us");
        ("plan.w64_us", mean ~scale:1e3 serve "plan.w64", "us");
        ( "plan.w64_batch_lane_us",
          per_call (incl serve "plan.w64_batch")
            (count serve "plan.w64_batch" *. float_of_int Gen.batch_lanes)
          /. 1e3,
          "us" );
        ("plan.divl_us", mean ~scale:1e3 serve "plan.divl", "us");
        ("machine.translate_us", value machine "translate_us", "us");
        ("machine.translations_per_req", value serve "translations_per_req", "count");
        ("machine.interp_mips", value machine "interp_mips", "Mcycles/s");
        ("machine.engine_mips", value machine "engine_mips", "Mcycles/s");
        ("machine.batch1_mips", value machine "batch1_mips", "Mcycles/s");
        ("machine.batch16_mips", value machine "batch16_mips", "Mcycles/s");
        ("gc.minor_kwords_per_req", value untraced "minor_kwords_per_req", "kwords");
        ("respond.plan_share", share (incl serve "plan.mul" +. incl serve "plan.div"), "ratio");
        ("respond.search_share", share search_ns, "ratio");
        ("respond.exec_share", share exec_ns, "ratio");
        ( "trace.overhead_pct",
          (value serve "wall_s" /. value untraced "wall_s" -. 1.0) *. 100.0,
          "%" );
      ]
    end
  in
  { attempted = n; failed = n - ok; metrics; problems = List.rev !problems }

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let json_result ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else failf "metric is not finite"
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} k (num v) u)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/hppa_served.exe" and out = ref "" in
  let phase = ref None in
  let positional = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME warm_zipf | cold32 | exec_mix");
      ("--seed", Arg.Set_int seed, "N request-list seed");
      ("--seconds", Arg.Set_int seconds, "S run length; sets the request count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or per-layer replay");
      ("--server", Arg.Set_string exe, "EXE hppa-serve executable");
      ("--out", Arg.Set_string out, "FILE (phase) where to write the result");
    ]
  in
  Arg.parse spec (fun a -> positional := a :: !positional) "bench.exe [phase NAME] OPTIONS";
  (match List.rev !positional with
  | [ "phase"; name ] -> phase := Some name
  | [] -> ()
  | _ ->
      prerr_endline "bench.exe: unexpected arguments";
      exit 2);
  let workload =
    match Gen.of_string !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "bench.exe: unknown workload %S\n" !workload;
        exit 2
  in
  if !seconds < 1 then (prerr_endline "bench.exe: --seconds must be >= 1"; exit 2);
  match !phase with
  | Some name ->
      let g = Gen.generate workload ~seed:!seed ~seconds:!seconds in
      let targets : int list list =
        let ic = open_in_bin (!out ^ ".targets") in
        let t = Marshal.from_channel ic in
        close_in ic;
        t
      in
      let r =
        match run_phase name g ~targets with
        | r -> Ok r
        | exception Failed e -> Error e
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = open_out_bin !out in
      Marshal.to_channel oc (r : (result, string) Stdlib.result) [];
      close_out oc
  | None -> (
      if not (Sys.file_exists !exe) then (
        Printf.eprintf "bench.exe: server executable %s not found\n" !exe;
        exit 2);
      (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      match run ~exe:!exe ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
      | o ->
          List.iter (fun p -> log "perfbench: FAIL %s" p) o.problems;
          let correct = o.problems = [] && o.failed = 0 in
          print_endline (json_result ~correct ~attempted:o.attempted ~failed:o.failed o.metrics);
          exit (if correct then 0 else 1)
      | exception Failed e ->
          kill_all ();
          log "perfbench: error: %s" e;
          exit 1
      | exception e ->
          kill_all ();
          log "perfbench: error: %s" (Printexc.to_string e);
          exit 1)
