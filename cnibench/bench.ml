(* One workload of the CNI simulator, measured from outside the library.

     bench.exe e2e    --workload NAME --seed N [--setups K] [--count-frames]
     bench.exe layers --workload NAME --seed N

   [e2e] times set-up [K] times, then times one untraced simulation, records
   the peak heap, runs the output checks and prints one JSON object with the
   host timings, the deterministic simulated results and the check verdicts.
   It also times a fixed reference kernel (module [Reference]), against
   which run.py scales the simulation's host time.
   [--count-frames] adds a traced pass (after everything timed) that counts
   delivered frames on the KV workload, whose cluster is internal to
   [Kv_serve.run].

   [layers] runs the workload untraced (counters from each layer's public
   [stats] functions), then traced (categories [nic] and [atm], then [dsm]
   or [engine]), then replays each layer's public calls on inputs shaped by
   the run, and prints the per-layer metrics as one JSON object.

   Nothing here adds tracing inside the library: every number comes from
   public counters, from [Trace] records the library already emits, or from
   host timing around calls this file makes itself. cnibench/run.py drives
   both modes; cnibench/README.md explains every metric. *)

module Engine = Cni_engine.Engine
module Heap = Cni_engine.Heap
module Time = Cni_engine.Time
module Trace = Cni_engine.Trace
module Rng = Cni_engine.Rng
module Registry = Cni_engine.Stats.Registry
module Params = Cni_machine.Params
module Cache = Cni_machine.Cache
module Bus = Cni_machine.Bus
module Fabric = Cni_atm.Fabric
module Aal5 = Cni_atm.Aal5
module Faults = Cni_atm.Faults
module Topology = Cni_atm.Topology
module Classifier = Cni_pathfinder.Classifier
module Nic = Cni_nic.Nic
module Wire = Cni_nic.Wire
module Message_cache = Cni_nic.Message_cache
module Reliable_ir = Cni_nic.Reliable_ir
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Mp = Cni_mp.Mp
module Lrc = Cni_dsm.Lrc
module Space = Cni_dsm.Space
module Protocol = Cni_dsm.Protocol
module Diff = Cni_dsm.Diff
module Sparse = Cni_apps.Sparse
module Cholesky = Cni_apps.Cholesky
module Jacobi = Cni_apps.Jacobi
module Kv_serve = Cni_apps.Kv_serve
module Scenario = Cni_experiments.Scenario
module Arrival = Cni_experiments.Arrival
module Runner = Cni_experiments.Runner
module Aih_verify = Cni_aih.Aih_verify
module Aih_exec = Cni_aih.Aih_exec

(* ------------------------------------------------------------------ *)
(* Utilities                                                           *)
(* ------------------------------------------------------------------ *)

let clock = Unix.gettimeofday

let timed f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let sum_over n f = let acc = ref 0 in for i = 0 to n - 1 do acc := !acc + f i done; !acc
let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Nearest-rank quantile of a sorted array; [nan] when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Samples strictly beyond the [q] quantile's rank. *)
let beyond n q = n - int_of_float (ceil (q *. float_of_int n))

(* Host nanoseconds per call of [f i] for i = 0, 1, ...: batches of
   [batch] calls are repeated until [min_s] seconds have passed (at least
   five batches) and the median batch is reported. *)
let ns_per_call ?(min_s = 0.15) ~batch f =
  let samples = ref [] and spent = ref 0. and k = ref 0 in
  while !spent < min_s || List.length !samples < 5 do
    let (), dt = timed (fun () -> for i = 0 to batch - 1 do f ((!k * batch) + i) done) in
    incr k;
    spent := !spent +. dt;
    samples := (dt *. 1e9 /. float_of_int batch) :: !samples
  done;
  median !samples

(* ------------------------------------------------------------------ *)
(* Reference kernel                                                    *)
(* ------------------------------------------------------------------ *)

(* A fixed kernel built from the standard library only, in two parts that
   resemble the simulator's own work. (1) A toy discrete-event simulation:
   16 fibers (effect handlers) exchange small messages through a binary
   event heap and a routing table, as the simulated nodes do. (2) Stencil
   sweeps and a random gather over 64 MiB, as the machine cache model and
   the DSM page copies do; the array is a Bigarray, outside the OCaml heap,
   so it adds nothing to [peak_heap_mb]. The kernel shares no code with the
   simulator, so a change to the simulator never changes its time. On a
   shared host the speed of identical runs drifts by 15-20 % over minutes;
   run.py divides each process's simulation time by the same process's
   kernel time, so that most of that drift cancels. *)
module Reference = struct
  type msg = { dst : int; payload : float array }
  type _ Effect.t += Sleep : float -> unit Effect.t | Recv : int -> msg Effect.t

  let nodes = 16

  (* Binary min-heap of timed thunks. *)
  let heap = ref (Array.make 1024 (0., ignore)) and size = ref 0

  let push t f =
    if !size = Array.length !heap then heap := Array.append !heap (Array.make !size (0., ignore));
    let a = !heap in
    let i = ref !size in
    incr size;
    while !i > 0 && fst a.((!i - 1) / 2) > t do
      a.(!i) <- a.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    a.(!i) <- (t, f)

  let pop () =
    let a = !heap in
    let top = a.(0) in
    decr size;
    let last = a.(!size) in
    let i = ref 0 and stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      let m = if l + 1 < !size && fst a.(l + 1) < fst a.(l) then l + 1 else l in
      if m < !size && fst a.(m) < fst last then begin
        a.(!i) <- a.(m);
        i := m
      end
      else stop := true
    done;
    a.(!i) <- last;
    top

  (* Runs the simulation; returns its event count, which never varies. *)
  let simulate ~rounds =
    let open Effect.Deep in
    size := 0;
    let now = ref 0. in
    let inbox = Array.init nodes (fun _ -> Queue.create ()) and waiting = Array.make nodes None in
    let route = Hashtbl.create 256 in
    for s = 0 to nodes - 1 do
      for d = 0 to nodes - 1 do
        Hashtbl.replace route (s, d) (float_of_int (1 + (((s * 7) + (d * 3)) mod 11)) *. 1e-6)
      done
    done;
    let deliver m =
      match waiting.(m.dst) with
      | Some k ->
          waiting.(m.dst) <- None;
          push !now (fun () -> continue k m)
      | None -> Queue.push m inbox.(m.dst)
    in
    let node id () =
      let st = Random.State.make [| id |] in
      for round = 1 to rounds do
        (* a permutation per round: every node receives one message a round *)
        let dst = (id + 1 + (round mod (nodes - 1))) mod nodes in
        let m = { dst; payload = Array.make 8 (float_of_int round) } in
        push (!now +. Hashtbl.find route (id, dst)) (fun () -> deliver m);
        Effect.perform (Sleep (Random.State.float st 2e-6));
        ignore (Effect.perform (Recv id))
      done
    in
    let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option = function
      | Sleep d -> Some (fun k -> push (!now +. d) (fun () -> continue k ()))
      | Recv id ->
          Some
            (fun k ->
              if Queue.is_empty inbox.(id) then waiting.(id) <- Some k
              else
                let m = Queue.pop inbox.(id) in
                push !now (fun () -> continue k m))
      | _ -> None
    in
    for id = 0 to nodes - 1 do
      push 0. (fun () -> try_with (node id) () { effc })
    done;
    let events = ref 0 in
    while !size > 0 do
      let t, f = pop () in
      now := t;
      incr events;
      f ()
    done;
    !events

  let words = 1 lsl 23
  let data = lazy (Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout words float_of_int)

  let stream () =
    let module A = Bigarray.Array1 in
    let a = Lazy.force data in
    for _ = 1 to 2 do
      for i = 1 to words - 2 do
        A.unsafe_set a i
          ((0.25 *. (A.unsafe_get a (i - 1) +. A.unsafe_get a (i + 1))) +. (0.5 *. A.unsafe_get a i))
      done
    done;
    let x = ref 1 and sum = ref 0. in
    for _ = 1 to 600_000 do
      x := ((!x * 1103515245) + 12345) land (words - 1);
      sum := !sum +. A.unsafe_get a !x
    done;
    !sum

  let run () =
    ignore (simulate ~rounds:10_000);
    ignore (stream ())

  (* The first run in a process is slower (fiber stacks, page faults). *)
  let warm_up () =
    ignore (simulate ~rounds:1_000);
    ignore (Lazy.force data)
end

(* Host times of two reference runs, made at process start: before any
   set-up, so that no simulator state (a DSM run leaves its cluster live)
   slows them. *)
let reference_times () =
  Reference.warm_up ();
  List.init 2 (fun _ -> snd (timed Reference.run))

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json = F of float | I of int | S of string | B of bool | L of json list | O of (string * json) list

let rec write_json b = function
  | F f when Float.is_integer f && Float.abs f < 1e15 -> Buffer.add_string b (Printf.sprintf "%.1f" f)
  | F f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | F _ -> Buffer.add_string b "null"
  | I i -> Buffer.add_string b (string_of_int i)
  | B v -> Buffer.add_string b (if v then "true" else "false")
  | S s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | L l ->
      Buffer.add_char b '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; write_json b v) l;
      Buffer.add_char b ']'
  | O kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write_json b (S k);
          Buffer.add_char b ':';
          write_json b v)
        kv;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  write_json b j;
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

type check = { what : string; ok : bool; detail : string }

let check what ok detail = { what; ok; detail }
let checks_json cs = L (List.map (fun c -> O [ ("what", S c.what); ("ok", B c.ok); ("detail", S c.detail) ]) cs)

(* Relative tolerance of the numeric output checks, normwise:
   max |x - ref| / max |ref|. *)
let tolerance = 1e-9

let normwise_error values reference =
  if Array.length values <> Array.length reference then infinity
  else begin
    let err = ref 0. and scale = ref 0. in
    Array.iteri
      (fun i r ->
        err := Float.max !err (Float.abs (values.(i) -. r));
        scale := Float.max !scale (Float.abs r))
      reference;
    if !scale = 0. then !err else !err /. !scale
  end

(* Sequential Jacobi relaxation with the application's initial plane
   (fixed boundary, zero interior) and update order; returns the sum of the
   final plane, the quantity [Jacobi.run] reports as its checksum. *)
let jacobi_reference ~n ~iterations =
  let init k =
    let i = k / n and j = k mod n in
    if i = 0 || j = 0 || i = n - 1 || j = n - 1 then
      1.0 +. (float_of_int ((i * 31) + (j * 17) mod 97) /. 97.0)
    else 0.0
  in
  let cur = ref (Array.init (n * n) init) and nxt = ref (Array.init (n * n) init) in
  for _ = 1 to iterations do
    let src = !cur and dst = !nxt in
    for i = 1 to n - 2 do
      let base = i * n in
      for j = 1 to n - 2 do
        dst.(base + j) <-
          0.25 *. (src.(base - n + j) +. src.(base + n + j) +. src.(base + j - 1) +. src.(base + j + 1))
      done
    done;
    cur := dst;
    nxt := src
  done;
  Array.fold_left ( +. ) 0.0 !cur

(* ------------------------------------------------------------------ *)
(* DSM workloads                                                       *)
(* ------------------------------------------------------------------ *)

type dsm_setup = {
  cluster : Protocol.msg Cluster.t;
  lrcs : Lrc.t array;
  create_s : float;  (** Cluster.create *)
  install_s : float;  (** Lrc.install *)
  run : unit -> dsm_result;
}

and dsm_result = {
  footprint_bytes : int;  (** shared data a node sweeps, for the cache replay *)
  checks : unit -> check list;  (** the application's output checks *)
}

let dsm_cluster ~nic_kind ~nodes =
  let cluster, create_s = timed (fun () -> Cluster.create ~nic_kind ~nodes ()) in
  let lrcs, install_s =
    timed (fun () ->
        let page_bytes = (Cluster.params cluster).Params.page_bytes in
        Lrc.install cluster (Space.create ~nprocs:nodes ~page_bytes) ())
  in
  (cluster, lrcs, create_s, install_s)

(* dsm-cholesky-cni8: the bcsstk14-like stiffness matrix (order 1806, 3 dofs
   per mesh node; the seed sets the values), 8 CNI nodes with the board
   defaults, single switch, no faults. *)
let cholesky_setup ~seed =
  let matrix = Sparse.stiffness_like ~n:1806 ~dofs:3 ~seed in
  let cluster, lrcs, create_s, install_s = dsm_cluster ~nic_kind:(Runner.cni ()) ~nodes:8 in
  let run () =
    let r = Cholesky.run cluster lrcs (Cholesky.default_config matrix) in
    {
      footprint_bytes = r.Cholesky.fill_nnz * 8;
      checks =
        (fun () ->
          let err = normwise_error r.Cholesky.values (Cholesky.reference_factor matrix) in
          [
            check
              (Printf.sprintf "cholesky L matches reference_factor (normwise rel err <= %g)" tolerance)
              (err <= tolerance) (Printf.sprintf "err=%.3g" err);
          ]);
    }
  in
  { cluster; lrcs; create_s; install_s; run }

(* dsm-jacobi-std16: Jacobi n = 1024, 16 iterations, 16 standard-board
   nodes, single switch. Jacobi has no random input: the seed is unused. *)
let jacobi_config =
  { Jacobi.default_config with Jacobi.n = 1024; iterations = 16 }

let jacobi_setup ~seed:_ =
  let cluster, lrcs, create_s, install_s = dsm_cluster ~nic_kind:Runner.standard ~nodes:16 in
  let run () =
    let cfg = jacobi_config in
    let r = Jacobi.run cluster lrcs cfg in
    let procs = Cluster.size cluster in
    {
      footprint_bytes = 2 * ((cfg.Jacobi.n / procs) + 2) * cfg.Jacobi.n * 8;
      checks =
        (fun () ->
          let reference = jacobi_reference ~n:cfg.Jacobi.n ~iterations:cfg.Jacobi.iterations in
          let err = normwise_error [| r.Jacobi.checksum |] [| reference |] in
          [
            check
              (Printf.sprintf "jacobi checksum matches sequential Jacobi (rel err <= %g)" tolerance)
              (err <= tolerance)
              (Printf.sprintf "got=%.17g want=%.17g" r.Jacobi.checksum reference);
          ]);
    }
  in
  { cluster; lrcs; create_s; install_s; run }

(* Checks every DSM run must pass whatever the application. *)
let dsm_invariants cluster =
  let n = Cluster.size cluster in
  let fab = Cluster.fabric cluster in
  let f = Fabric.stats fab in
  let fault = sum_over n (fun i -> Fabric.fault_drops fab ~node:i) in
  let crash = sum_over n (fun i -> Fabric.crash_drops fab ~node:i) in
  let rs = Engine.run_stats (Cluster.engine cluster) in
  let unacked =
    List.filter_map
      (fun i -> Option.map (fun r -> r.Nic.tx_unacked) (Nic.rel_stats (Node.nic (Cluster.node cluster i))))
      (List.init n Fun.id)
  in
  [
    check "frames conserved: offered = delivered + fault drops + crash drops, none undeliverable"
      (f.Fabric.offered_packets = f.Fabric.delivered_packets + fault + crash && f.Fabric.dropped = 0)
      (Printf.sprintf "offered=%d delivered=%d fault=%d crash=%d undeliverable=%d"
         f.Fabric.offered_packets f.Fabric.delivered_packets fault crash f.Fabric.dropped);
    check "engine.past_clamps = 0" (rs.Engine.past_clamps = 0)
      (Printf.sprintf "past_clamps=%d" rs.Engine.past_clamps);
  ]
  @
  match unacked with
  | [] -> [] (* reliability is off on the DSM workloads: nothing to await *)
  | l ->
      let u = List.fold_left ( + ) 0 l in
      [ check "nic tx_unacked = 0" (u = 0) (Printf.sprintf "tx_unacked=%d" u) ]

(* ------------------------------------------------------------------ *)
(* KV workload                                                         *)
(* ------------------------------------------------------------------ *)

(* kv-torus-lossy16: 12 Poisson clients, 4 servers, 256-byte values, 20%
   puts, 400 service cycles, CNI with AIH on a 1x4x4 torus, cell loss
   1e-4; per-client rates of the offered-rate ladder. *)
let kv_rates = [ 20_000; 30_000; 35_000 ]
let kv_clients = 12
let kv_requests_per_client = 5000
let rate_tag rate = Printf.sprintf "r%dk" (rate * kv_clients / 1000)

let kv_profile ~seed ~rate =
  {
    Scenario.name = "kv-torus-lossy16-" ^ rate_tag rate;
    summary = "open-loop KV ladder point on a lossy 1x4x4 torus";
    clients = kv_clients;
    servers = 4;
    requests_per_client = kv_requests_per_client;
    arrival = Arrival.Poisson { rate_per_s = float_of_int rate };
    value_bytes = 256;
    put_pct = 20;
    service_cycles = 400;
    seed;
    nic = Scenario.Cni;
    aih = true;
    rx_policy = Scenario.Hybrid;
    rx_batch = 1;
    topology = Topology.Torus { dims = Some (1, 4, 4) };
    faults = { Faults.none with Faults.seed = seed + 1; cell_loss = 1e-4 };
  }

(* Set-up of one ladder point, as a user of [cni_sim scenario] pays it:
   render the profile, parse it back, validate and preflight it. Returns
   the parsed profile, the preflight's host time and any failures. *)
let kv_prepare ~seed ~rate =
  let text = Scenario.to_string (kv_profile ~seed ~rate) in
  match Scenario.of_string text with
  | Error e -> Error ("parse: " ^ e), 0.
  | Ok p -> (
      match Scenario.validate p with
      | Error es -> Error ("validate: " ^ String.concat "; " es), 0.
      | Ok () ->
          let verdicts, preflight_s = timed (fun () -> Scenario.preflight p) in
          let bad = List.filter_map (fun (l, v) -> match v with Ok _ -> None | Error e -> Some (l ^ ": " ^ e)) verdicts in
          if bad = [] then (Ok p, preflight_s) else (Error ("preflight: " ^ String.concat "; " bad), preflight_s))

(* Simulated watchdog: twice the nominal arrival span plus 20 ms. *)
let kv_watchdog rate = Time.ms ((2 * 1000 * kv_requests_per_client / rate) + 20)

type kv_point = {
  rate : int;  (** per client *)
  outcome : (Kv_serve.result, string) result;
  point_wall_s : float;
  arrival_span_us : float;  (** the latest scheduled arrival over clients *)
}

(* The latest scheduled generation time over all clients, rebuilt from the
   same seeded arrival streams [Scenario.run] hands [Kv_serve] (per-client
   seed [seed + 104729 * (client + 1)]). *)
let arrival_span_us (p : Scenario.profile) =
  let latest = ref 0 in
  for client = 0 to p.Scenario.clients - 1 do
    let g = Arrival.create ~seed:(p.Scenario.seed + (104729 * (client + 1))) p.Scenario.arrival in
    let t = ref 0 in
    for _ = 1 to p.Scenario.requests_per_client do
      t := !t + Time.to_ps (Arrival.next_gap g)
    done;
    latest := max !latest !t
  done;
  float_of_int !latest /. 1e6

(* A point that raises (a watchdog timeout, a delivery failure) is a
   result, not a benchmark crash: its requests count as failed. *)
let kv_run p rate =
  try Ok (Scenario.run ~watchdog:(kv_watchdog rate) p) with e -> Error (Printexc.to_string e)

let kv_run_point p rate =
  let outcome, point_wall_s = timed (fun () -> kv_run p rate) in
  { rate; outcome; point_wall_s; arrival_span_us = arrival_span_us p }

let kv_requests = kv_clients * kv_requests_per_client

let kv_point_json pt =
  let offered = float_of_int (pt.rate * kv_clients) in
  match pt.outcome with
  | Error e ->
      O [ ("tag", S (rate_tag pt.rate)); ("offered_rps", F offered); ("requests", I kv_requests);
          ("responses", I 0); ("failed", I kv_requests); ("error", S e) ]
  | Ok r ->
      let h = r.Kv_serve.hist in
      let n = Kv_serve.Hist.count h in
      let q x = float_of_int (Kv_serve.Hist.quantile h x) /. 1e3 in
      O
        [
          ("tag", S (rate_tag pt.rate)); ("offered_rps", F offered); ("wall_s", F pt.point_wall_s);
          ("requests", I r.Kv_serve.requests); ("responses", I r.Kv_serve.responses);
          ("failed", I (r.Kv_serve.requests - r.Kv_serve.responses));
          ("samples", I n); ("p50_us", F (q 0.5)); ("p999_us", F (q 0.999));
          ("beyond_p50", I (beyond n 0.5)); ("beyond_p999", I (beyond n 0.999));
          ("elapsed_us", F r.Kv_serve.elapsed_us); ("throughput_rps", F r.Kv_serve.throughput_rps);
          ("drain_lag_us", F (r.Kv_serve.elapsed_us -. pt.arrival_span_us));
          ("retransmits", I r.Kv_serve.retransmits); ("fault_drops", I r.Kv_serve.fault_drops);
          ("hop_waits", I r.Kv_serve.hop_waits); ("interrupts", I r.Kv_serve.host_interrupts);
          ("polls", I r.Kv_serve.polls); ("wasted_polls", I r.Kv_serve.wasted_polls);
        ]

(* Responses per simulated second over the offered rate. *)
let served pt =
  match pt.outcome with
  | Ok r -> r.Kv_serve.throughput_rps /. float_of_int (pt.rate * kv_clients)
  | Error _ -> 0.

let p999_us (r : Kv_serve.result) = float_of_int (Kv_serve.Hist.quantile r.Kv_serve.hist 0.999) /. 1e3

(* The highest ladder rate that answers every request, serves at least 95%
   of its offered rate and keeps p999 <= 250 us; 0 when none does. *)
let kv_capacity points =
  List.fold_left
    (fun best pt ->
      match pt.outcome with
      | Ok r when r.Kv_serve.responses = r.Kv_serve.requests && served pt >= 0.95 && p999_us r <= 250. ->
          max best (float_of_int (pt.rate * kv_clients))
      | _ -> best)
    0. points

let kv_checks points =
  List.map
    (fun pt ->
      let what = Printf.sprintf "kv %s: no exception and responses = requests" (rate_tag pt.rate) in
      match pt.outcome with
      | Error e -> check what false e
      | Ok r ->
          check what
            (r.Kv_serve.responses = r.Kv_serve.requests
            && Kv_serve.Hist.count r.Kv_serve.hist = r.Kv_serve.responses)
            (Printf.sprintf "requests=%d responses=%d" r.Kv_serve.requests r.Kv_serve.responses))
    points

(* ------------------------------------------------------------------ *)
(* Trace analysis                                                      *)
(* ------------------------------------------------------------------ *)

(* Fresh trace buffer of [capacity] records for [cats]. *)
let trace_on ~capacity cats =
  Trace.set_capacity capacity;
  Trace.enable ~cats ()

(* FIFO queues keyed by an int pair. *)
let push_q tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some q -> Queue.push v q
  | None ->
      let q = Queue.create () in
      Queue.push v q;
      Hashtbl.replace tbl k q

let pop_q tbl k = match Hashtbl.find_opt tbl k with Some q when not (Queue.is_empty q) -> Some (Queue.pop q) | _ -> None

(* What one [nic]+[atm] traced pass yields. Frame latency pairs each atm
   "send" (node = src, payload = dst) with the nic "rx" (node = dst,
   payload = src) of the same directed pair in FIFO order — frames of one
   pair are delivered in order on every topology — and only on pairs whose
   send and rx counts agree, so a frame lost in flight cannot shift the
   pairing. Transmit spans pair begin and end FIFO per (node, dst). *)
type nic_atm = {
  records : int;  (** every record emitted, overwritten or not *)
  retained_all : bool;
  rx : int;
  sends : int;
  tx_spans : int;
  retransmits : int;
  rx_duplicates : int;
  frame_lat_ps : int array;  (** sorted *)
  tx_span_ps : int array;  (** sorted *)
}

let analyse_nic_atm () =
  let sends = Hashtbl.create 256 and rxs = Hashtbl.create 256 in
  let count tbl k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  let n_rx = ref 0 and n_send = ref 0 and n_tx = ref 0 and n_retx = ref 0 and n_dup = ref 0 in
  Trace.iter (fun r ->
      match r.Trace.category, r.Trace.event, r.Trace.label with
      | Trace.Atm, Trace.Point, "send" -> incr n_send; count sends (r.Trace.node, r.Trace.payload)
      | Trace.Nic, Trace.Point, "rx" -> incr n_rx; count rxs (r.Trace.payload, r.Trace.node)
      | Trace.Nic, Trace.Span_end, "tx" -> incr n_tx
      | Trace.Nic, Trace.Point, "retransmit" -> incr n_retx
      | Trace.Nic, Trace.Point, "rx-duplicate" -> incr n_dup
      | _ -> ());
  let clean k = Hashtbl.find_opt sends k = Hashtbl.find_opt rxs k in
  let pending = Hashtbl.create 256 and open_tx = Hashtbl.create 256 in
  let lat = ref [] and spans = ref [] in
  Trace.iter (fun r ->
      match r.Trace.category, r.Trace.event, r.Trace.label with
      | Trace.Atm, Trace.Point, "send" ->
          let k = (r.Trace.node, r.Trace.payload) in
          if clean k then push_q pending k r.Trace.t_ps
      | Trace.Nic, Trace.Point, "rx" -> (
          let k = (r.Trace.payload, r.Trace.node) in
          if clean k then match pop_q pending k with Some t0 -> lat := (r.Trace.t_ps - t0) :: !lat | None -> ())
      | Trace.Nic, Trace.Span_begin, "tx" -> push_q open_tx (r.Trace.node, r.Trace.payload) r.Trace.t_ps
      | Trace.Nic, Trace.Span_end, "tx" -> (
          match pop_q open_tx (r.Trace.node, r.Trace.payload) with
          | Some t0 -> spans := (r.Trace.t_ps - t0) :: !spans
          | None -> ())
      | _ -> ());
  let sorted l = let a = Array.of_list l in Array.sort compare a; a in
  {
    records = Trace.emitted (); retained_all = Trace.dropped () = 0;
    rx = !n_rx; sends = !n_send; tx_spans = !n_tx; retransmits = !n_retx; rx_duplicates = !n_dup;
    frame_lat_ps = sorted !lat; tx_span_ps = sorted !spans;
  }

(* Barrier spans of the [dsm] category, paired FIFO per node (a node's
   application fiber is in at most one barrier at a time). *)
let barrier_spans_ps () =
  let open_b = Hashtbl.create 16 and acc = ref [] in
  Trace.iter (fun r ->
      match r.Trace.category, r.Trace.event, r.Trace.label with
      | Trace.Dsm, Trace.Span_begin, "barrier" -> push_q open_b (r.Trace.node, 0) r.Trace.t_ps
      | Trace.Dsm, Trace.Span_end, "barrier" -> (
          match pop_q open_b (r.Trace.node, 0) with Some t0 -> acc := (r.Trace.t_ps - t0) :: !acc | None -> ())
      | _ -> ());
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let q_us a q = quantile (Array.map float_of_int a) q /. 1e6

(* ------------------------------------------------------------------ *)
(* Layer replays                                                       *)
(* ------------------------------------------------------------------ *)

(* [Heap.add] + [Heap.pop_min_value] at a steady depth of [depth]. *)
let heap_ns_per_op ~depth =
  let depth = max 1 depth in
  let h = Heap.create () in
  let rng = Rng.create ~seed:depth in
  let gaps = Array.init 4096 (fun _ -> 1 + Rng.int rng 1_000_000) in
  for i = 1 to depth do
    Heap.add h ~key:gaps.(i land 4095) ~seq:i ()
  done;
  let per_pair =
    ns_per_call ~batch:10_000 (fun i ->
        let k = Heap.min_key h in
        Heap.pop_min_value h;
        Heap.add h ~key:(k + gaps.(i land 4095)) ~seq:(depth + i) ())
  in
  per_pair /. 2.

(* [Cache.access_line] sweeping [footprint] bytes at the line stride, one
   write in four (the shape of [Node.touch] over a shared array). *)
let cache_ns_per_access ~footprint =
  let p = Params.default in
  let c = Cache.create p in
  let line = p.Params.line_bytes in
  let lines = max 1 (footprint / line) in
  ns_per_call ~batch:20_000 (fun i ->
      let l = i mod lines in
      ignore (Cache.access_line c ~addr:(l * line) ~write:(l land 3 = 0) : Cache.access_result))

(* [Aal5.segment] plus [Reassembler.push] of every cell, for one frame of
   [bytes]. *)
let aal5_ns_per_frame ~bytes =
  let frame = Bytes.init (max 1 bytes) (fun i -> Char.chr (i land 0xff)) in
  let r = Aal5.Reassembler.create () in
  ns_per_call ~batch:500 (fun _ ->
      List.iter (fun c -> ignore (Aal5.Reassembler.push r c : Bytes.t option)) (Aal5.segment ~vpi:0 ~vci:1 frame))

(* [Classifier.add] of the workload's pattern set into a fresh classifier,
   per add; and [Classifier.classify] over the workload's header mix. *)
let pathfinder_ns ~patterns ~headers =
  let npat = List.length patterns in
  let add_ns =
    ns_per_call ~batch:200 (fun _ ->
        let c = Classifier.create () in
        List.iteri (fun i p -> ignore (Classifier.add c p i : Classifier.handle)) patterns)
    /. float_of_int (max 1 npat)
  in
  let c = Classifier.create () in
  List.iteri (fun i p -> ignore (Classifier.add c p i : Classifier.handle)) patterns;
  let nh = Array.length headers in
  let classify_ns = ns_per_call ~batch:10_000 (fun i -> ignore (Classifier.classify c headers.(i mod nh) : int option)) in
  (add_ns, classify_ns)

(* [Diff.create] plus [Diff.apply] on one page with [density] of its words
   dirty, spread evenly. *)
let diff_ns_per_page ~page_bytes ~density =
  let words = page_bytes / Diff.word_bytes in
  let twin = Bytes.init page_bytes (fun i -> Char.chr ((i * 7) land 0xff)) in
  let current = Bytes.copy twin in
  let dirty = max 1 (int_of_float (Float.round (density *. float_of_int words))) in
  for k = 0 to dirty - 1 do
    let w = k * words / dirty in
    Bytes.set_int64_le current (w * Diff.word_bytes) (Int64.of_int (k + 1))
  done;
  let target = Bytes.copy twin in
  ns_per_call ~batch:200 (fun _ -> Diff.apply (Diff.create ~twin ~current) target)

(* [Aih_verify.verify] of the reliable-delivery firmware pair the KV
   preflight certifies, in ms; and [Aih_exec.run] of the receive handler on
   a stream of fresh in-order data frames, in ns per activation. *)
let aih_replay ~size =
  let budget = Params.line_rate_budget Params.default in
  let rx = Reliable_ir.rx_program ~size and tx = Reliable_ir.tx_program ~size in
  let verify_ms =
    ns_per_call ~batch:5 (fun _ ->
        List.iter
          (fun p ->
            match Aih_verify.verify ~cell_budget:budget p with
            | Ok _ -> ()
            | Error rjs -> failwith (Aih_verify.explain_all rjs))
          [ rx; tx ])
    /. 1e6
  in
  let mem = Array.make rx.Cni_aih.Aih_ir.seg_words 0 in
  let next_seq = Array.make size 0 in
  let services = { Aih_exec.sv_send = (fun ~dst:_ ~kind:_ ~obj:_ ~value:_ -> ()); sv_wake = (fun ~seq:_ ~value:_ -> ()); sv_charge = ignore } in
  let exec_ns =
    ns_per_call ~batch:10_000 (fun i ->
        let src = i mod size in
        let seq = next_seq.(src) in
        next_seq.(src) <- seq + 1;
        let view = [| Reliable_ir.k_data; src; Reliable_ir.default_channel; seq; 0; 256 |] in
        ignore (Aih_exec.run rx ~view ~mem ~inputs:[||] services : int))
  in
  (verify_ms, exec_ns)

(* ------------------------------------------------------------------ *)
(* Workload selection                                                  *)
(* ------------------------------------------------------------------ *)

type workload = Cholesky_cni8 | Jacobi_std16 | Kv_torus_lossy16

let workload_of_string = function
  | "dsm-cholesky-cni8" -> Some Cholesky_cni8
  | "dsm-jacobi-std16" -> Some Jacobi_std16
  | "kv-torus-lossy16" -> Some Kv_torus_lossy16
  | _ -> None

let dsm_setup = function
  | Cholesky_cni8 -> cholesky_setup
  | Jacobi_std16 -> jacobi_setup
  | Kv_torus_lossy16 -> invalid_arg "dsm_setup"

(* ------------------------------------------------------------------ *)
(* e2e mode                                                            *)
(* ------------------------------------------------------------------ *)

(* Deterministic results of a DSM run, compared across repetitions. *)
let dsm_sim_json cluster =
  let f = Fabric.stats (Cluster.fabric cluster) in
  let rs = Engine.run_stats (Cluster.engine cluster) in
  O
    [
      ("elapsed_ms", F (Time.to_ms_float (Cluster.elapsed cluster)));
      ("frames", I f.Fabric.delivered_packets);
      ("events", I rs.Engine.events_dispatched);
      ("wire_bytes", I f.Fabric.delivered_wire_bytes);
      ("mc_hit_pct", F (Cluster.network_cache_hit_ratio cluster));
    ]

(* Runs [setup] [n] times; returns the last result and every host time. *)
let repeat_setup n setup =
  let times = List.init (n - 1) (fun _ -> snd (timed setup)) in
  let last, dt = timed setup in
  (last, L (List.map (fun x -> F x) (dt :: times)))

let e2e_dsm w ~seed ~setups =
  let ref_s = reference_times () in
  let s, setup_s = repeat_setup setups (fun () -> dsm_setup w ~seed) in
  let result, wall_s = timed s.run in
  let heap = peak_heap_mb () in
  let checks = result.checks () @ dsm_invariants s.cluster in
  O
    [
      ("setup_s", setup_s); ("wall_s", F wall_s); ("ref_s", L (List.map (fun x -> F x) ref_s));
      ("peak_heap_mb", F heap); ("sim", dsm_sim_json s.cluster); ("checks", checks_json checks);
    ]

(* One traced re-run of a ladder point: its trace analysis, outcome and
   host time. The ring holds every record of a point at these rates. *)
let kv_traced cats p rate =
  trace_on ~capacity:2_000_000 cats;
  let outcome, dt = timed (fun () -> kv_run p rate) in
  Trace.disable ();
  let a = analyse_nic_atm () in
  Trace.clear ();
  (a, outcome, dt)

(* Delivered frames per ladder point, counted from nic "rx" records of a
   traced re-run (deterministic for a seed); null if the ring overflowed. *)
let kv_count_frames profiles =
  List.map
    (fun (p, rate) ->
      let a, _, _ = kv_traced [ Trace.Nic ] p rate in
      if a.retained_all then I a.rx else F nan)
    profiles

let kv_setup ~seed =
  List.map
    (fun rate ->
      match kv_prepare ~seed ~rate with
      | Ok p, _ -> (p, rate)
      | Error e, _ -> failwith (Printf.sprintf "kv %s set-up failed: %s" (rate_tag rate) e))
    kv_rates

let e2e_kv ~seed ~setups ~count_frames =
  let ref_s = reference_times () in
  let profiles, setup_s = repeat_setup setups (fun () -> kv_setup ~seed) in
  let points = List.map (fun (p, rate) -> kv_run_point p rate) profiles in
  let heap = peak_heap_mb () in
  let wall_s = List.fold_left (fun a pt -> a +. pt.point_wall_s) 0. points in
  let frames = if count_frames then L (kv_count_frames profiles) else L [] in
  O
    [
      ("setup_s", setup_s); ("wall_s", F wall_s); ("ref_s", L (List.map (fun x -> F x) ref_s));
      ("peak_heap_mb", F heap); ("points", L (List.map kv_point_json points)); ("frames", frames);
      ("capacity_rps", F (kv_capacity points));
      ("checks", checks_json (kv_checks points));
    ]

(* ------------------------------------------------------------------ *)
(* layers mode                                                         *)
(* ------------------------------------------------------------------ *)

(* A workload reports only the per-layer metrics it exercises; run.py
   reports every other name in BENCHMARK.json as -1 (not applicable). *)

(* One replayed public call: how often the run made it and what one call
   costs. [on_path] calls are made by the simulation itself, so calls x ns
   estimates part of [wall_s]; the others are made at set-up, or their cost
   is charged analytically instead of executed. *)
type replay = { layer : string; call : string; calls : int; ns : float; on_path : bool }

let est_host_ms replays layer =
  List.fold_left
    (fun a r -> if r.on_path && r.layer = layer then a +. (float_of_int r.calls *. r.ns /. 1e6) else a)
    0. replays

let replay_metrics ~wall_s replays =
  let layers = List.sort_uniq compare (List.filter_map (fun r -> if r.on_path then Some r.layer else None) replays) in
  let accounted = List.fold_left (fun a l -> a +. est_host_ms replays l) 0. layers in
  List.map (fun l -> (l ^ ".est_host_ms", est_host_ms replays l)) layers
  @ [ ("wall_s.unaccounted_ratio", 1. -. (accounted /. (wall_s *. 1e3))) ]

let replays_json replays =
  L
    (List.map
       (fun r ->
         O [ ("layer", S r.layer); ("call", S r.call); ("calls", I r.calls); ("ns_per_call", F r.ns); ("on_path", B r.on_path) ])
       replays)

let quantile_metrics name ps qs =
  List.map (fun (tag, q) -> (Printf.sprintf "%s.%s" name tag, q_us ps q)) qs
  @ [ (name ^ ".samples", float_of_int (Array.length ps)) ]

(* DSM header mix: the protocol kinds actually received, in proportion,
   over 1024 frames. *)
let dsm_headers lrcs =
  let count kind =
    let name = Protocol.kind_name kind in
    Array.fold_left (fun a l -> a + Option.value (List.assoc_opt name (Lrc.received_messages l)) ~default:0) 0 lrcs
  in
  let kinds = List.map (fun k -> (k, count k)) Protocol.all_kinds in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 kinds in
  List.concat_map
    (fun (kind, n) ->
      List.init (n * 1024 / max 1 total) (fun i ->
          Wire.encode
            { Wire.kind; cacheable = false; has_data = false; src = i mod Array.length lrcs;
              channel = Protocol.channel; obj = i; aux = 0 }))
    kinds
  |> Array.of_list

let layers_dsm w ~seed =
  (* untraced run: counters *)
  let s = dsm_setup w ~seed in
  let g0 = Gc.minor_words () in
  let result, wall_s = timed s.run in
  let minor = Gc.minor_words () -. g0 in
  let cl = s.cluster in
  let n = Cluster.size cl in
  let node i = Cluster.node cl i in
  let nic f = sum_over n (fun i -> f (Nic.stats (Node.nic (node i)))) in
  let cache f = sum_over n (fun i -> f (Cache.stats (Node.cache (node i)))) in
  let mc f = sum_over n (fun i -> Option.fold ~none:0 ~some:(fun m -> f (Message_cache.stats m)) (Nic.message_cache (Node.nic (node i)))) in
  let rel f = sum_over n (fun i -> Option.fold ~none:0 ~some:f (Nic.rel_stats (Node.nic (node i)))) in
  let lrc f = Array.fold_left (fun a l -> a + f (Lrc.stats l)) 0 s.lrcs in
  let fab = Fabric.stats (Cluster.fabric cl) in
  let rs = Engine.run_stats (Cluster.engine cl) in
  let frames = fab.Fabric.delivered_packets in
  let pf x = per x frames in
  let accesses = cache (fun c -> c.Cache.accesses) and l1 = cache (fun c -> c.Cache.l1_hits) in
  let ring name =
    List.fold_left
      (fun a (k, v) ->
        match v with
        | Registry.Counter_v c when String.ends_with ~suffix:("/ring/" ^ name) k -> a + c
        | _ -> a)
      0 (Cluster.metrics_snapshot cl)
  in
  let sim_ms f = Array.fold_left (fun a nd -> a +. Time.to_ms_float (f (Node.report nd))) 0. (Cluster.nodes cl) in
  let page_bytes = (Cluster.params cl).Params.page_bytes in
  (* traced pass A: nic + atm *)
  let sa = dsm_setup w ~seed in
  trace_on ~capacity:((6 * frames) + 65536) [ Trace.Nic; Trace.Atm ];
  let _, traced_s = timed sa.run in
  Trace.disable ();
  let tr = analyse_nic_atm () in
  Trace.clear ();
  (* traced pass B: dsm barrier spans *)
  let sb = dsm_setup w ~seed in
  trace_on ~capacity:((2 * frames) + 65536) [ Trace.Dsm ];
  ignore (sb.run () : dsm_result);
  Trace.disable ();
  let barriers = barrier_spans_ps () in
  let retained_all = tr.retained_all && Trace.dropped () = 0 in
  Trace.clear ();
  (* replays, shaped by the run *)
  let mean_frame_bytes = max 1 ((fab.Fabric.delivered_cells * 48 / max 1 frames) - 8) in
  let patterns = List.map (fun kind -> Wire.pattern_channel_kind ~channel:Protocol.channel ~kind) Protocol.all_kinds in
  let add_ns, classify_ns = pathfinder_ns ~patterns ~headers:(dsm_headers s.lrcs) in
  let density =
    (* bytes a data frame carries beyond one header cell, over a page *)
    let data_bytes = fab.Fabric.delivered_wire_bytes - (53 * frames) in
    Float.min 1. (Float.max 0. (per data_bytes (nic (fun x -> x.Nic.tx_data_packets)) /. float_of_int page_bytes))
  in
  let replays =
    [
      { layer = "engine"; call = "Heap.add / Heap.pop_min_value"; calls = 2 * rs.Engine.events_dispatched;
        ns = heap_ns_per_op ~depth:rs.Engine.max_heap_depth; on_path = true };
      { layer = "machine"; call = "Cache.access_line"; calls = accesses;
        ns = cache_ns_per_access ~footprint:result.footprint_bytes; on_path = true };
      { layer = "pathfinder"; call = "Classifier.classify"; calls = nic (fun x -> x.Nic.rx_packets); ns = classify_ns; on_path = true };
      { layer = "pathfinder"; call = "Classifier.add"; calls = n * List.length patterns; ns = add_ns; on_path = false };
      { layer = "atm"; call = "Aal5.segment + Reassembler.push"; calls = frames;
        ns = aal5_ns_per_frame ~bytes:mean_frame_bytes; on_path = false };
      { layer = "dsm"; call = "Diff.create + Diff.apply"; calls = lrc (fun x -> x.Lrc.diff_fetches);
        ns = diff_ns_per_page ~page_bytes ~density; on_path = false };
    ]
  in
  let ns call = (List.find (fun r -> r.call = call) replays).ns in
  let acquires = lrc (fun x -> x.Lrc.remote_acquires) + lrc (fun x -> x.Lrc.local_acquires) in
  let has_mc = Array.exists (fun nd -> Nic.message_cache (Node.nic nd) <> None) (Cluster.nodes cl) in
  let m =
    [
      ("engine.events_per_frame", pf rs.Engine.events_dispatched);
      ("engine.max_heap_depth", float_of_int rs.Engine.max_heap_depth);
      ("engine.host_ns_per_event", wall_s *. 1e9 /. float_of_int (max 1 rs.Engine.events_dispatched));
      ("engine.heap_ns_per_op", ns "Heap.add / Heap.pop_min_value");
      ("engine.past_clamps", float_of_int rs.Engine.past_clamps);
      ("cluster.minor_words_per_frame", minor /. float_of_int (max 1 frames));
      ("cluster.create_ms", s.create_s *. 1e3);
      ("cluster.sim_computation_ms", sim_ms (fun r -> r.Node.computation));
      ("cluster.sim_synch_overhead_ms", sim_ms (fun r -> r.Node.synch_overhead));
      ("cluster.sim_synch_delay_ms", sim_ms (fun r -> r.Node.synch_delay));
      ("cluster.sim_service_ms", sim_ms (fun r -> r.Node.service_time));
      ("machine.cache_accesses_per_frame", pf accesses);
      ("machine.l1_hit_ratio", per l1 accesses);
      ("machine.l2_hit_ratio", per (cache (fun c -> c.Cache.l2_hits)) (accesses - l1));
      ("machine.bus_dma_bytes", float_of_int (sum_over n (fun i -> (Bus.stats (Node.bus (node i))).Bus.dma_bytes)));
      ("machine.cache_ns_per_access", ns "Cache.access_line");
      ("atm.cells_per_frame", pf fab.Fabric.delivered_cells);
      ("atm.wire_bytes_per_frame", pf fab.Fabric.delivered_wire_bytes);
      ("atm.hop_waits_per_frame", pf fab.Fabric.hop_waits);
      ("atm.banyan_conflicts_per_frame", pf fab.Fabric.banyan_conflicts);
      ("atm.delivered_ratio", per frames fab.Fabric.offered_packets);
      ("atm.fault_drops", float_of_int (sum_over n (fun i -> Fabric.fault_drops (Cluster.fabric cl) ~node:i)));
      ("atm.aal5_ns_per_frame", ns "Aal5.segment + Reassembler.push");
      ("pathfinder.unmatched", float_of_int (nic (fun x -> x.Nic.unmatched)));
      ("pathfinder.add_ns", add_ns);
      ("pathfinder.classify_ns", classify_ns);
      ("nic.interrupts_per_frame", pf (nic (fun x -> x.Nic.interrupts)));
      ("nic.polls_per_frame", pf (nic (fun x -> x.Nic.polls)));
      ("nic.wasted_poll_ratio", per (nic (fun x -> x.Nic.wasted_polls)) (nic (fun x -> x.Nic.polls + x.Nic.wasted_polls)));
      ("nic.tx_dma_bytes_per_frame", pf (nic (fun x -> x.Nic.tx_dma_bytes)));
      ("nic.rx_dma_bytes_per_frame", pf (nic (fun x -> x.Nic.rx_dma_bytes)));
      ("nic.ring_full_stalls", float_of_int (ring "full_stalls"));
      ("nic.ring_empty_stalls", float_of_int (ring "empty_stalls"));
      ("nic.retransmit_ratio", per (rel (fun r -> r.Nic.retransmits)) (nic (fun x -> x.Nic.tx_packets)));
      ("nic.rx_duplicates", float_of_int (rel (fun r -> r.Nic.rx_duplicates)));
      ("nic.rto_capped", float_of_int (rel (fun r -> r.Nic.rto_capped)));
      ("dsm.remote_acquire_ratio", per (lrc (fun x -> x.Lrc.remote_acquires)) acquires);
      ("dsm.diff_fetches", float_of_int (lrc (fun x -> x.Lrc.diff_fetches)));
      ("dsm.page_fetches", float_of_int (lrc (fun x -> x.Lrc.page_fetches)));
      ("dsm.twins", float_of_int (lrc (fun x -> x.Lrc.twins)));
      ("dsm.barriers", float_of_int (lrc (fun x -> x.Lrc.barriers)));
      ("dsm.install_ms", s.install_s *. 1e3);
      ("dsm.diff_ns_per_page", ns "Diff.create + Diff.apply");
      ("trace.overhead_ratio", traced_s /. wall_s);
      ("trace.records_per_frame", pf tr.records);
    ]
    @ (if has_mc then
         [ ("nic.mc_hit_ratio", per (mc (fun x -> x.Message_cache.hits)) (mc (fun x -> x.Message_cache.hits + x.Message_cache.misses)));
           ("nic.mc_evictions", float_of_int (mc (fun x -> x.Message_cache.evictions))) ]
       else [])
    @ quantile_metrics "atm.frame_latency_us" tr.frame_lat_ps [ ("p50", 0.5); ("p999", 0.999) ]
    @ quantile_metrics "nic.tx_span_us" tr.tx_span_ps [ ("p50", 0.5); ("p99", 0.99) ]
    @ quantile_metrics "dsm.barrier_span_us" barriers [ ("p50", 0.5) ]
    @ replay_metrics ~wall_s replays
  in
  let checks =
    result.checks () @ dsm_invariants cl
    @ [ check "traced run delivered the untraced run's frames (tracing changes no result)"
          (tr.rx = frames) (Printf.sprintf "traced rx=%d untraced=%d" tr.rx frames) ]
  in
  let info =
    O
      [
        ("wall_s", F wall_s); ("traced_wall_s", F traced_s); ("frames", I frames);
        ("trace_retained_all", B retained_all);
        ("replay_inputs", O [ ("heap_depth", I rs.Engine.max_heap_depth); ("cache_footprint_bytes", I result.footprint_bytes);
                               ("aal5_frame_bytes", I mean_frame_bytes); ("patterns", I (List.length patterns));
                               ("diff_density", F density); ("diff_page_bytes", I page_bytes) ]);
        ("replays", replays_json replays);
      ]
  in
  (m, info, checks)

let layers_kv ~seed =
  let profiles = kv_setup ~seed in
  let _, preflight_s = kv_prepare ~seed ~rate:(List.hd kv_rates) in
  let g0 = Gc.minor_words () in
  let points = List.map (fun (p, rate) -> kv_run_point p rate) profiles in
  let minor = Gc.minor_words () -. g0 in
  let wall_s = List.fold_left (fun a pt -> a +. pt.point_wall_s) 0. points in
  let ok_results = List.filter_map (fun pt -> Result.to_option pt.outcome) points in
  let sum f = List.fold_left (fun a r -> a + f r) 0 ok_results in
  (* traced pass A per point: nic + atm *)
  let traced = List.map (fun (p, rate) -> kv_traced [ Trace.Nic; Trace.Atm ] p rate) profiles in
  let passes = List.map (fun (a, _, _) -> a) traced in
  let traced_s = List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0. traced in
  (* traced pass E per point: engine events, counted; the ring keeps the
     last 65,536, whose largest queue depth is a lower bound *)
  let events = ref 0 and depth = ref 0 in
  List.iter
    (fun (p, rate) ->
      trace_on ~capacity:65536 [ Trace.Engine ];
      ignore (kv_run p rate : (Kv_serve.result, string) result);
      Trace.disable ();
      events := !events + Trace.emitted ();
      Trace.iter (fun r -> if r.Trace.label = "event" then depth := max !depth r.Trace.payload);
      Trace.clear ())
    profiles;
  let psum f = List.fold_left (fun a x -> a + f x) 0 passes in
  let frames = psum (fun a -> a.rx) in
  let pf x = per x frames in
  let merged f = let a = Array.concat (List.map f passes) in Array.sort compare a; a in
  (* mean frame: a 32-byte key header one way and the 256-byte value the
     other (puts carry it in the request, gets in the response) *)
  let mean_frame_bytes = Wire.header_bytes + ((32 + 256) / 2) in
  let headers =
    Array.init 1024 (fun i ->
        Wire.encode { Wire.kind = 1; cacheable = false; has_data = false; src = i mod 16; channel = Mp.channel; obj = 1 + (i land 1); aux = 0 })
  in
  let add_ns, classify_ns = pathfinder_ns ~patterns:[ Wire.pattern_channel ~channel:Mp.channel ] ~headers in
  let verify_ms, exec_ns = aih_replay ~size:16 in
  let replays =
    [
      { layer = "engine"; call = "Heap.add / Heap.pop_min_value"; calls = 2 * !events; ns = heap_ns_per_op ~depth:!depth; on_path = true };
      { layer = "pathfinder"; call = "Classifier.classify"; calls = frames; ns = classify_ns; on_path = true };
      { layer = "pathfinder"; call = "Classifier.add"; calls = 16; ns = add_ns; on_path = false };
      { layer = "atm"; call = "Aal5.segment + Reassembler.push"; calls = frames; ns = aal5_ns_per_frame ~bytes:mean_frame_bytes; on_path = false };
      { layer = "aih"; call = "Aih_verify.verify (rx + tx)"; calls = List.length kv_rates; ns = verify_ms *. 1e6; on_path = false };
    ]
  in
  let ns call = (List.find (fun r -> r.call = call) replays).ns in
  let create_ms =
    let p = fst (List.hd profiles) in
    1e3
    *. median
         (List.init 3 (fun _ ->
              snd (timed (fun () ->
                       ignore (Cluster.create ~faults:p.Scenario.faults ~topology:p.Scenario.topology
                                 ~nic_kind:(Runner.cni ()) ~nodes:16 () : unit Cluster.t)))))
  in
  let per_rate name f =
    List.map (fun pt -> (Printf.sprintf "experiments.%s.%s" name (rate_tag pt.rate), f pt)) points
  in
  let result pt f = match pt.outcome with Ok r -> f r | Error _ -> nan in
  let quant q pt = result pt (fun r -> float_of_int (Kv_serve.Hist.quantile r.Kv_serve.hist q) /. 1e3) in
  let m =
    [
      ("engine.events_per_frame", pf !events);
      ("engine.max_heap_depth", float_of_int !depth);
      ("engine.host_ns_per_event", wall_s *. 1e9 /. float_of_int (max 1 !events));
      ("engine.heap_ns_per_op", ns "Heap.add / Heap.pop_min_value");
      ("cluster.minor_words_per_frame", minor /. float_of_int (max 1 frames));
      ("cluster.create_ms", create_ms);
      ("atm.hop_waits_per_frame", pf (sum (fun r -> r.Kv_serve.hop_waits)));
      ("atm.delivered_ratio", per frames (psum (fun a -> a.sends)));
      ("atm.fault_drops", float_of_int (sum (fun r -> r.Kv_serve.fault_drops)));
      ("atm.aal5_ns_per_frame", ns "Aal5.segment + Reassembler.push");
      ("pathfinder.add_ns", add_ns);
      ("pathfinder.classify_ns", classify_ns);
      ("nic.interrupts_per_frame", pf (sum (fun r -> r.Kv_serve.host_interrupts)));
      ("nic.polls_per_frame", pf (sum (fun r -> r.Kv_serve.polls)));
      ("nic.wasted_poll_ratio", per (sum (fun r -> r.Kv_serve.wasted_polls)) (sum (fun r -> r.Kv_serve.polls + r.Kv_serve.wasted_polls)));
      ("nic.retransmit_ratio", per (sum (fun r -> r.Kv_serve.retransmits)) (psum (fun a -> a.tx_spans)));
      ("nic.rx_duplicates", float_of_int (psum (fun a -> a.rx_duplicates)));
      ("aih.verify_ms", verify_ms);
      ("aih.exec_ns_per_activation", exec_ns);
      ("experiments.preflight_ms", preflight_s *. 1e3);
      ("experiments.sim_capacity_rps", kv_capacity points);
      ("trace.overhead_ratio", traced_s /. wall_s);
      ("trace.records_per_frame", pf (psum (fun a -> a.records)));
    ]
    @ quantile_metrics "atm.frame_latency_us" (merged (fun a -> a.frame_lat_ps)) [ ("p50", 0.5); ("p999", 0.999) ]
    @ quantile_metrics "nic.tx_span_us" (merged (fun a -> a.tx_span_ps)) [ ("p50", 0.5); ("p99", 0.99) ]
    @ per_rate "served_ratio" served
    @ per_rate "drain_lag_us" (fun pt -> result pt (fun r -> r.Kv_serve.elapsed_us -. pt.arrival_span_us))
    @ per_rate "sim_p50_us" (quant 0.5)
    @ per_rate "sim_p999_us" (quant 0.999)
    @ replay_metrics ~wall_s replays
  in
  let checks =
    kv_checks points
    @ List.map2
        (fun pt (_, traced, _) ->
          let same =
            match (pt.outcome, traced) with
            | Ok a, Ok b -> a.Kv_serve.hist = b.Kv_serve.hist
            | Error _, Error _ -> true
            | _ -> false
          in
          check (Printf.sprintf "kv %s: traced run has the untraced latency distribution (tracing changes no result)" (rate_tag pt.rate)) same "")
        points traced
  in
  let info =
    O
      [
        ("wall_s", F wall_s); ("traced_wall_s", F traced_s); ("frames", I frames);
        ("trace_retained_all", B (List.for_all (fun a -> a.retained_all) passes));
        ("points", L (List.map kv_point_json points));
        ("replay_inputs", O [ ("heap_depth", I !depth); ("aal5_frame_bytes", I mean_frame_bytes); ("patterns", I 1) ]);
        ("replays", replays_json replays);
      ]
  in
  (m, info, checks)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe (e2e|layers) --workload \
     (dsm-cholesky-cni8|dsm-jacobi-std16|kv-torus-lossy16) --seed N [--setups K] [--count-frames]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, rest = match args with m :: r -> (m, r) | [] -> usage () in
  let workload = ref None and seed = ref None and setups = ref 5 and count_frames = ref false in
  let rec parse = function
    | "--workload" :: w :: r -> workload := workload_of_string w; parse r
    | "--seed" :: s :: r -> seed := int_of_string_opt s; parse r
    | "--setups" :: k :: r -> setups := max 1 (Option.value (int_of_string_opt k) ~default:5); parse r
    | "--count-frames" :: r -> count_frames := true; parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse rest;
  match (mode, !workload, !seed) with
  | "e2e", Some Kv_torus_lossy16, Some seed ->
      print_json (e2e_kv ~seed ~setups:!setups ~count_frames:!count_frames)
  | "e2e", Some w, Some seed -> print_json (e2e_dsm w ~seed ~setups:!setups)
  | "layers", Some w, Some seed ->
      let m, info, checks = match w with Kv_torus_lossy16 -> layers_kv ~seed | w -> layers_dsm w ~seed in
      print_json (O [ ("metrics", O (List.map (fun (k, v) -> (k, F v)) m)); ("info", info); ("checks", checks_json checks) ])
  | _ -> usage ()
