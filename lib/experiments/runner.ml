module Time = Cni_engine.Time
module Params = Cni_machine.Params
module Engine = Cni_engine.Engine
module Nic = Cni_nic.Nic
module Reliable = Cni_nic.Reliable
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Space = Cni_dsm.Space
module Lrc = Cni_dsm.Lrc

type app = Cni_dsm.Protocol.msg Cluster.t -> Lrc.t array -> unit

type outcome = Ok | Delivery_failed | Peer_dead | Deadlock | Watchdog | Barrier_timeout

(* name, exit code and meaning of every outcome: the one table the front
   ends print and exit from *)
let outcomes =
  [
    (Ok, "ok", 0, "every application fiber finished");
    (Delivery_failed, "delivery-failed", 3, "a frame ran out of retransmissions to a live peer");
    (Peer_dead, "peer-dead", 4, "a frame ran out of retransmissions to a crashed peer");
    (Deadlock, "deadlock", 5, "the event queue drained with a live node's application unfinished");
    (Watchdog, "watchdog", 6, "events were still pending at the watchdog limit");
    (Barrier_timeout, "barrier-timeout", 7, "a node gave up waiting at a DSM barrier");
  ]

let row o = List.find (fun (o', _, _, _) -> o' = o) outcomes
let outcome_name o = match row o with _, name, _, _ -> name
let exit_code o = match row o with _, _, code, _ -> code
let preflight_refused = 2

let exit_table =
  (preflight_refused, "a preflight check failed; nothing ran.")
  :: List.filter_map
       (fun (_, name, code, doc) ->
         if code = 0 then None else Some (code, Printf.sprintf "outcome %s: %s." name doc))
       outcomes

(* the one place a run-ending exception is sorted. Application and protocol
   exceptions reach here wrapped by the fiber that raised them, and the
   engine's annotation of one is its message; the watchdog and the deadlock
   check raise outside any fiber. *)
let classify = function
  | Engine.Quiescence_timeout _ as e -> Some (Watchdog, Printexc.to_string e)
  | Cluster.Deadlock _ as e -> Some (Deadlock, Printexc.to_string e)
  | Engine.Fiber_failure (m, Reliable.Peer_dead _) -> Some (Peer_dead, m)
  | Engine.Fiber_failure (m, Reliable.Delivery_failed _) -> Some (Delivery_failed, m)
  | Engine.Fiber_failure (m, Lrc.Barrier_timeout _) -> Some (Barrier_timeout, m)
  | _ -> None

let stopped cluster ~waits e =
  match classify e with
  | None -> raise e
  | Some (((Deadlock | Watchdog) as outcome), message) ->
      ( outcome,
        message
        :: Array.fold_right
             (fun n acc -> if Node.finished n then acc else waits (Node.id n) :: acc)
             (Cluster.nodes cluster) [] )
  | Some (outcome, message) -> (outcome, [ message ])

let print_outcome oc outcome detail =
  Printf.fprintf oc "outcome            %s\n" (outcome_name outcome);
  List.iter (fun line -> Printf.fprintf oc "  %s\n" line) detail

type result = {
  outcome : outcome;
  detail : string list;
  elapsed : Time.t;
  elapsed_cycles : float;
  hit_ratio : float;
  computation : Time.t;
  synch_overhead : Time.t;
  synch_delay : Time.t;
  totals : Cluster.totals;
  message_mix : (string * int) list;  (* protocol messages by kind, summed *)
  metrics : Cni_engine.Stats.Registry.snapshot;
}

let cni ?mc_bytes ?mc_mode ?aih ?rx_policy ?rx_batch () =
  let d = Nic.default_cni_options in
  `Cni
    {
      Nic.mc_bytes = Option.value mc_bytes ~default:d.Nic.mc_bytes;
      mc_mode = Option.value mc_mode ~default:d.Nic.mc_mode;
      aih = Option.value aih ~default:d.Nic.aih;
      rx_policy = Option.value rx_policy ~default:d.Nic.rx_policy;
      rx_batch = Option.value rx_batch ~default:d.Nic.rx_batch;
      rx_poll_period = d.Nic.rx_poll_period;
      mc_phys_to_vpage = d.Nic.mc_phys_to_vpage;
    }

let standard = `Standard
let osiris = `Osiris Nic.default_osiris_options

let run ?(params = Params.default) ?faults ?reliability ?topology ?barrier_impl ~kind ~procs
    app =
  let cluster =
    Cluster.create ~params ?faults ?reliability ?topology ~nic_kind:kind ~nodes:procs ()
  in
  let space = Space.create ~nprocs:procs ~page_bytes:params.Params.page_bytes in
  let lrcs = Lrc.install cluster space ?barrier_impl () in
  let outcome, detail =
    match app cluster lrcs with
    | () -> (Ok, [])
    | exception e -> stopped cluster ~waits:(fun i -> Lrc.debug_waits lrcs.(i)) e
  in
  let o = Cluster.overheads cluster in
  let elapsed = Cluster.elapsed cluster in
  let mix = Hashtbl.create 12 in
  Array.iter
    (fun l ->
      List.iter
        (fun (k, n) ->
          Hashtbl.replace mix k (n + Option.value (Hashtbl.find_opt mix k) ~default:0))
        (Lrc.received_messages l))
    lrcs;
  {
    outcome;
    detail;
    elapsed;
    elapsed_cycles = Time.to_s_float elapsed *. float_of_int params.Params.cpu_hz;
    hit_ratio = Cluster.network_cache_hit_ratio cluster;
    computation = o.Cluster.computation;
    synch_overhead = o.Cluster.synch_overhead;
    synch_delay = o.Cluster.synch_delay;
    totals = Cluster.totals cluster;
    message_mix = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) mix []);
    metrics = Cluster.metrics_snapshot cluster;
  }

let speedup ~t1 r = Time.to_s_float t1 /. Time.to_s_float r.elapsed
