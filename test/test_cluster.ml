(* Tests for the cluster layer: node time accounting (the paper's three
   categories), stolen-time handling, deadlock detection and the cluster
   aggregates. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Params = Cni_machine.Params
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Runner = Cni_experiments.Runner

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let p = Params.default
let cni = `Cni Nic.default_cni_options

let mk ?params nodes : unit Cluster.t = Cluster.create ?params ~nic_kind:cni ~nodes ()

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

let test_work_is_computation () =
  let cluster = mk 1 in
  Cluster.run_app cluster (fun node -> Node.work node 1000);
  let r = Node.report (Cluster.node cluster 0) in
  checki "computation = 1000 cycles" (Time.to_ps (Params.cpu_cycles p 1000))
    (Time.to_ps r.Node.computation);
  checki "no overhead" 0 (Time.to_ps r.Node.synch_overhead);
  checki "no delay" 0 (Time.to_ps r.Node.synch_delay);
  checki "finish = computation" (Time.to_ps r.Node.computation) (Time.to_ps r.Node.finish_time)

let test_work_batches () =
  (* many work calls flush as one delay at the next interaction point *)
  let cluster = mk 1 in
  Cluster.run_app cluster (fun node ->
      for _ = 1 to 100 do
        Node.work node 10
      done;
      Node.flush_pending node;
      checki "accumulated exactly" (Time.to_ps (Params.cpu_cycles p 1000))
        (Time.to_ps (Engine.now (Cluster.engine cluster))))

let test_overhead_category () =
  let cluster = mk 1 in
  Cluster.run_app cluster (fun node ->
      Node.work node 500;
      Node.overhead_cycles node 300);
  let r = Node.report (Cluster.node cluster 0) in
  checki "overhead tracked" (Time.to_ps (Params.cpu_cycles p 300)) (Time.to_ps r.Node.synch_overhead);
  checki "computation tracked" (Time.to_ps (Params.cpu_cycles p 500)) (Time.to_ps r.Node.computation)

let test_blocking_category () =
  let cluster = mk 1 in
  let eng = Cluster.engine cluster in
  Cluster.run_app cluster (fun node ->
      let iv = Sync.Ivar.create () in
      Engine.at eng (Time.us 50) (fun () -> Sync.Ivar.fill iv ());
      Node.blocking node (fun () -> Sync.Ivar.read iv));
  let r = Node.report (Cluster.node cluster 0) in
  checki "wait accounted as delay" (Time.to_ps (Time.us 50)) (Time.to_ps r.Node.synch_delay)

let test_categories_partition_time () =
  let cluster = mk 1 in
  let eng = Cluster.engine cluster in
  Cluster.run_app cluster (fun node ->
      Node.work node 1000;
      Node.overhead_cycles node 200;
      let iv = Sync.Ivar.create () in
      Engine.at eng Time.(Engine.now eng + Time.us 7) (fun () -> Sync.Ivar.fill iv ());
      Node.blocking node (fun () -> Sync.Ivar.read iv);
      Node.work node 50);
  let r = Node.report (Cluster.node cluster 0) in
  let total = Time.(r.Node.computation + r.Node.synch_overhead + r.Node.synch_delay) in
  checki "categories sum to finish time" (Time.to_ps r.Node.finish_time) (Time.to_ps total)

let test_touch_charges_cache_traffic () =
  let cluster = mk 1 in
  Cluster.run_app cluster (fun node ->
      Node.touch node ~addr:0x10000 ~bytes:2048 ~write:false;
      Node.flush_pending node);
  let r = Node.report (Cluster.node cluster 0) in
  (* 64 cold line misses at 31 cycles each, plus TLB misses: well above the
     L1-hit floor of 64 cycles *)
  checkb "cold misses cost real time" true
    (Time.to_ps r.Node.computation > Time.to_ps (Params.cpu_cycles p 1000))

let test_touch_rereads_cheap () =
  let run twice =
    let cluster = mk 1 in
    Cluster.run_app cluster (fun node ->
        Node.touch node ~addr:0x10000 ~bytes:2048 ~write:false;
        if twice then Node.touch node ~addr:0x10000 ~bytes:2048 ~write:false);
    (Node.report (Cluster.node cluster 0)).Node.computation
  in
  let once = run false and twice = run true in
  (* the second pass hits L1: far less than double *)
  checkb "re-read much cheaper" true
    (Time.to_ps twice < Time.to_ps once + (Time.to_ps once / 2))

let test_flush_range_snoops_and_costs () =
  let cluster = mk 1 in
  let node = Cluster.node cluster 0 in
  let snooped = ref 0 in
  Cni_machine.Bus.register_snooper (Node.bus node) (fun ~dir ~addr:_ ~bytes:_ ->
      if dir = Cni_machine.Bus.Cpu_writeback then incr snooped);
  Cluster.run_app cluster (fun node ->
      Node.touch node ~addr:0x20000 ~bytes:512 ~write:true;
      Node.flush_range node ~addr:0x20000 ~bytes:512);
  checki "16 dirty lines snooped" 16 !snooped;
  let r = Node.report node in
  checkb "flush charged as overhead" true (Time.to_ps r.Node.synch_overhead > 0)

let test_stolen_time_drains () =
  (* protocol service while the host computes must appear as overhead and
     extend the node's finish time (the "steal" path of the standard NIC) *)
  let compute_cycles = 2_000_000 in
  let run ~senders =
    let cluster : unit Cluster.t = Cluster.create ~nic_kind:`Standard ~nodes:2 () in
    ignore
      (Nic.install_handler
         (Node.nic (Cluster.node cluster 0))
         ~pattern:Cni_nic.Wire.pattern_any ~code_bytes:64
         (fun ctx _ -> ctx.Nic.charge 500));
    Cluster.run_app cluster (fun node ->
        if Node.id node = 0 then Node.work node compute_cycles
        else if senders then
          for _ = 1 to 5 do
            Nic.send (Node.nic node) ~dst:0
              ~header:
                (Cni_nic.Wire.encode
                   {
                     Cni_nic.Wire.kind = 1;
                     cacheable = false;
                     has_data = false;
                     src = 1;
                     channel = 0;
                     obj = 0;
                     aux = 0;
                   })
              ~body_bytes:0 ~data:Nic.No_data ~payload:();
            Node.work node 20_000
          done);
    Node.report (Cluster.node cluster 0)
  in
  let quiet = run ~senders:false and noisy = run ~senders:true in
  checkb "stolen service extends finish" true
    (Time.to_ps noisy.Node.finish_time > Time.to_ps quiet.Node.finish_time);
  checkb "stolen service is overhead" true
    (Time.to_ps noisy.Node.synch_overhead > Time.to_ps quiet.Node.synch_overhead);
  (* at least 5 interrupts' worth of host time was stolen *)
  checkb "at least 5 interrupts stolen" true
    (Time.to_ps noisy.Node.synch_overhead >= 5 * Time.to_ps p.Params.interrupt_latency)

let test_deadlock_detected () =
  let cluster = mk 2 in
  match
    Cluster.run_app cluster (fun node ->
        if Node.id node = 0 then
          (* waits forever: nobody fills the ivar *)
          Node.blocking node (fun () ->
              let iv : unit Sync.Ivar.t = Sync.Ivar.create () in
              Sync.Ivar.read iv))
  with
  | () -> Alcotest.fail "expected deadlock failure"
  | exception (Cluster.Deadlock { unfinished; crashed } as e) -> (
      checkb "names the stuck node" true (unfinished = [ 0 ]);
      checkb "no crashed casualties" true (crashed = []);
      match Runner.stopped cluster ~waits:(Printf.sprintf "waits of %d") e with
      | Runner.Deadlock, [ _message; waits ] ->
          check Alcotest.string "detail names the unfinished node" "waits of 0" waits
      | o, detail ->
          Alcotest.failf "classified as %s with %d detail line(s)" (Runner.outcome_name o)
            (List.length detail))

(* ------------------------------------------------------------------ *)
(* Cluster aggregates                                                  *)
(* ------------------------------------------------------------------ *)

let test_elapsed_is_slowest () =
  let cluster = mk 3 in
  Cluster.run_app cluster (fun node -> Node.work node ((Node.id node + 1) * 1000));
  checki "slowest node wins" (Time.to_ps (Params.cpu_cycles p 3000))
    (Time.to_ps (Cluster.elapsed cluster))

let test_overheads_sum_nodes () =
  let cluster = mk 2 in
  Cluster.run_app cluster (fun node ->
      Node.work node 100;
      Node.overhead_cycles node 50);
  let o = Cluster.overheads cluster in
  checki "computation summed" (Time.to_ps (Params.cpu_cycles p 200)) (Time.to_ps o.Cluster.computation);
  checki "overhead summed" (Time.to_ps (Params.cpu_cycles p 100)) (Time.to_ps o.Cluster.synch_overhead)

let test_cluster_construction () =
  let cluster = mk 4 in
  checki "size" 4 (Cluster.size cluster);
  checkb "is cni" true (Cluster.is_cni cluster);
  checkb "nic kinds" true (Nic.is_cni (Node.nic (Cluster.node cluster 2)));
  let std : unit Cluster.t = Cluster.create ~nic_kind:`Standard ~nodes:2 () in
  checkb "standard" false (Cluster.is_cni std);
  Alcotest.check_raises "zero nodes" (Invalid_argument "Cluster.create: need at least one node")
    (fun () -> ignore (mk 0))

let test_run_twice_independent_clusters () =
  (* two identical clusters produce identical simulated times (determinism
     at the cluster level) *)
  let run () =
    let cluster = mk 3 in
    Cluster.run_app cluster (fun node ->
        Node.work node 1234;
        Node.touch node ~addr:0x400 ~bytes:256 ~write:true);
    Time.to_ps (Cluster.elapsed cluster)
  in
  checki "deterministic" (run ()) (run ())

let () =
  Alcotest.run "cluster"
    [
      ( "accounting",
        [
          Alcotest.test_case "work is computation" `Quick test_work_is_computation;
          Alcotest.test_case "work batches" `Quick test_work_batches;
          Alcotest.test_case "overhead category" `Quick test_overhead_category;
          Alcotest.test_case "blocking is delay" `Quick test_blocking_category;
          Alcotest.test_case "categories partition time" `Quick test_categories_partition_time;
          Alcotest.test_case "touch charges cache traffic" `Quick test_touch_charges_cache_traffic;
          Alcotest.test_case "re-reads cheap (cache model live)" `Quick test_touch_rereads_cheap;
          Alcotest.test_case "flush snoops and costs" `Quick test_flush_range_snoops_and_costs;
          Alcotest.test_case "stolen time drains" `Quick test_stolen_time_drains;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "elapsed = slowest" `Quick test_elapsed_is_slowest;
          Alcotest.test_case "overheads summed" `Quick test_overheads_sum_nodes;
          Alcotest.test_case "construction" `Quick test_cluster_construction;
          Alcotest.test_case "determinism" `Quick test_run_twice_independent_clusters;
        ] );
    ]
