(* Node crash/restart chaos: the fault schedule drives real crashes, the
   cluster recovers end to end, and every failure mode is structured — a
   crashed peer yields Peer_dead, a stuck run trips the quiescence
   watchdog, an open-loop receive times out. Never a hang. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Faults = Cni_atm.Faults
module Reliable = Cni_nic.Reliable
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Mp = Cni_mp.Mp
module Collectives = Cni_mp.Collectives
module Chaos = Cni_experiments.Chaos
module Params = Cni_machine.Params
module Space = Cni_dsm.Space
module Lrc = Cni_dsm.Lrc
module Runner = Cni_experiments.Runner
module Trace = Cni_engine.Trace

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let cni = `Cni Nic.default_cni_options

(* small closed-loop workload shared by the recovery tests *)
let dsm ?(seed = 7) ~crashes ~down () =
  Chaos.run_dsm ~seed ~procs:4 ~n:64 ~iterations:4 ~crashes ~down ()

let dsm_clean_checksum = lazy (dsm ~crashes:0 ~down:(Time.us 150) ()).Chaos.checksum

(* ------------------------------------------------------------------ *)
(* Closed-loop recovery                                                *)
(* ------------------------------------------------------------------ *)

let test_dsm_recovers () =
  let m = dsm ~crashes:2 ~down:(Time.us 300) () in
  check Alcotest.string "outcome ok" "ok" (Runner.outcome_name m.Chaos.outcome);
  check Alcotest.(list string) "no failure detail" [] m.Chaos.detail;
  checki "both crashes fired" 2 m.Chaos.crashes;
  checki "both restarts fired" 2 m.Chaos.restarts;
  checkb "revived boards saw traffic again" true (m.Chaos.recoveries >= 1);
  check (Alcotest.float 0.0) "fault-free checksum reproduced"
    (Lazy.force dsm_clean_checksum) m.Chaos.checksum

let test_dsm_recovers_scrubbed () =
  let m = Chaos.run_dsm ~procs:4 ~n:64 ~iterations:4 ~scrub:true ~crashes:2
      ~down:(Time.us 300) ()
  in
  checkb "scrubbed run completed" true (m.Chaos.outcome = Runner.Ok);
  check (Alcotest.float 0.0) "checksum survives board scrubs"
    (Lazy.force dsm_clean_checksum) m.Chaos.checksum

let test_chaos_deterministic () =
  let run () = dsm ~seed:11 ~crashes:2 ~down:(Time.us 300) () in
  checkb "identical metrics across two invocations" true (compare (run ()) (run ()) = 0);
  let ring () = Chaos.run_ring ~seed:11 ~nodes:4 ~rounds:12 ~crashes:2 ~down:(Time.us 200) () in
  checkb "ring metrics deterministic too" true (compare (ring ()) (ring ()) = 0)

(* random schedule x the closed-loop app: whatever the fault timing, the
   run either completes with the fault-free checksum (exactly-once
   delivery across the crashes) or returns a structured failure — the
   property call returning at all proves the watchdog bounded it *)
let dsm_qcheck =
  QCheck.Test.make ~count:6 ~name:"random schedule: exactly-once or clean failure"
    QCheck.(triple (int_range 0 1000) (int_range 0 2) (int_range 60 500))
    (fun (seed, crashes, down_us) ->
      let m = dsm ~seed ~crashes ~down:(Time.us down_us) () in
      if m.Chaos.outcome = Runner.Ok then m.Chaos.checksum = Lazy.force dsm_clean_checksum
      else Float.is_nan m.Chaos.checksum && m.Chaos.detail <> [])

(* open loop: the ring degrades by timing rounds out; duplicate delivery
   would inflate the checksum past the fault-free sum *)
let ring_qcheck =
  let clean =
    lazy (Chaos.run_ring ~nodes:4 ~rounds:12 ~crashes:0 ~down:(Time.us 150) ()).Chaos.checksum
  in
  QCheck.Test.make ~count:6 ~name:"ring degrades without hanging or duplicating"
    QCheck.(pair (int_range 0 1000) (int_range 1 3))
    (fun (seed, crashes) ->
      let m = Chaos.run_ring ~seed ~nodes:4 ~rounds:12 ~crashes ~down:(Time.us 200) () in
      m.Chaos.outcome = Runner.Ok && m.Chaos.checksum <= Lazy.force clean)

(* ------------------------------------------------------------------ *)
(* Board state across scrubbed crashes                                 *)
(* ------------------------------------------------------------------ *)

let test_scrub_cycles_preserve_board_memory () =
  (* three scrub crash/restart cycles against node 1 while node 0 keeps
     sending: the install-log replay must restore the wiped handlers and
     the parked-descriptor re-send must keep delivery exactly-once *)
  let cycles = 3 in
  let schedule =
    List.concat
      (List.init cycles (fun k ->
           let at = Time.(us 100 + (us 600 * k)) in
           [
             { Faults.e_at = at; e_node = 1; e_fault = Faults.Crash { scrub = true } };
             { Faults.e_at = Time.(at + us 200); e_node = 1; e_fault = Faults.Restart };
           ]))
  in
  let faults = { Faults.none with Faults.schedule } in
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~faults ~nic_kind:cni ~nodes:2 () in
  let eps = Mp.install cluster in
  let nic1 = Node.nic (Cluster.node cluster 1) in
  let code_bytes = Nic.handler_code_bytes nic1 in
  checkb "handlers charge board memory" true (code_bytes > 0);
  let got = ref 0 in
  Cluster.run_app ~watchdog:(Time.s 1) cluster (fun node ->
      let ep = eps.(Node.id node) in
      if Mp.rank ep = 0 then
        for r = 0 to 5 do
          Mp.send ep ~dst:1 ~tag:r (r * 7);
          Engine.delay (Time.us 300)
        done
      else
        for r = 0 to 5 do
          got := !got + (Mp.recv ep ~tag:r ()).Mp.value
        done);
  checki "every message delivered exactly once across the crashes" 105 !got;
  checki "board memory restored by the install-log replay" code_bytes
    (Nic.handler_code_bytes nic1);
  checki "one epoch per restart" cycles (Nic.epoch nic1)

(* ------------------------------------------------------------------ *)
(* Collectives around a crash                                          *)
(* ------------------------------------------------------------------ *)

let test_collective_parity_between_crashes () =
  (* a scrub crash/restart cycle that falls between two allreduce
     episodes: both episodes must produce the fault-free result *)
  let run ~faulty =
    let faults =
      if not faulty then Faults.none
      else
        {
          Faults.none with
          Faults.schedule =
            [
              { Faults.e_at = Time.us 300; e_node = 2; e_fault = Faults.Crash { scrub = true } };
              { Faults.e_at = Time.us 600; e_node = 2; e_fault = Faults.Restart };
            ];
        }
    in
    let cluster : int Cluster.t = Cluster.create ~faults ~nic_kind:cni ~nodes:4 () in
    let eps = Collectives.install ~inject:Fun.id ~project:Fun.id cluster in
    let sums = Array.make 4 (0, 0) in
    Cluster.run_app ~watchdog:(Time.s 1) cluster (fun node ->
        let r = Node.id node in
        let ep = eps.(r) in
        let a = Collectives.allreduce ep ~op:( + ) (r + 1) in
        Engine.delay (Time.us 1000);
        let b = Collectives.allreduce ep ~op:( + ) ((r + 1) * 10) in
        sums.(r) <- (a, b));
    sums
  in
  Alcotest.(check (array (pair int int)))
    "episodes straddling the crash match the fault-free run" (run ~faulty:false)
    (run ~faulty:true)

(* ------------------------------------------------------------------ *)
(* Structured failure, never a hang                                    *)
(* ------------------------------------------------------------------ *)

let test_watchdog_fires_on_deliberate_deadlock () =
  (* both ranks wait on a tag nobody sends while a self-rearming timer
     keeps the event queue busy: without the watchdog this spins forever *)
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let eps = Mp.install cluster in
  let eng = Cluster.engine cluster in
  let rec tick () = Engine.after eng (Time.us 50) tick in
  tick ();
  match
    Cluster.run_app ~watchdog:(Time.ms 1) cluster (fun node ->
        ignore (Mp.recv eps.(Node.id node) ~tag:9 ()))
  with
  | () -> Alcotest.fail "expected Quiescence_timeout"
  | exception (Engine.Quiescence_timeout { limit; _ } as e) -> (
      checki "fired at the configured limit" (Time.to_ps (Time.ms 1)) (Time.to_ps limit);
      match Runner.stopped cluster ~waits:(fun i -> Mp.debug_state eps.(i)) e with
      | Runner.Watchdog, [ _message; w0; w1 ] ->
          check Alcotest.string "rank 0 waits on tag 9" "rank 0: waiters=[(src=*,tag=9)] mailbox=[]" w0;
          check Alcotest.string "rank 1 waits on tag 9" "rank 1: waiters=[(src=*,tag=9)] mailbox=[]" w1
      | o, detail ->
          Alcotest.failf "classified as %s with %d detail line(s)" (Runner.outcome_name o)
            (List.length detail))

let test_peer_dead_mid_send () =
  (* node 1 crashes and never restarts; node 0's send must exhaust its
     budget and surface Peer_dead — not Delivery_failed, not a hang *)
  let faults =
    {
      Faults.none with
      Faults.schedule = [ { Faults.e_at = Time.us 50; e_node = 1; e_fault = Faults.Crash { scrub = false } } ];
    }
  in
  let reliability =
    { Reliable.default with Reliable.timeout = Time.us 50; max_tries = 4; max_rto = Time.us 400 }
  in
  let cluster : int Mp.envelope Cluster.t =
    Cluster.create ~faults ~reliability ~nic_kind:cni ~nodes:2 ()
  in
  let eps = Mp.install cluster in
  match
    Cluster.run_app ~watchdog:(Time.s 1) cluster (fun node ->
        let ep = eps.(Node.id node) in
        if Mp.rank ep = 0 then begin
          Engine.delay (Time.us 100);
          Mp.send ep ~dst:1 ~tag:1 5
        end
        else ignore (Mp.recv ep ~tag:1 ()))
  with
  | () -> Alcotest.fail "expected Peer_dead"
  | exception (Engine.Fiber_failure (_, Reliable.Peer_dead f) as e) ->
      checki "failure names the dead peer" 1 f.Reliable.dst;
      checki "budget was spent first" 4 f.Reliable.tries;
      checkb "classified peer-dead" true
        (Option.map fst (Runner.classify e) = Some Runner.Peer_dead)

let test_barrier_timeout_classified () =
  (* node 1 never arrives: node 0's bounded barrier wait gives up *)
  let cluster = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let space = Space.create ~nprocs:2 ~page_bytes:(Cluster.params cluster).Params.page_bytes in
  let lrcs = Lrc.install cluster space ~barrier_timeout:(Time.us 100) () in
  match
    Cluster.run_app cluster (fun node ->
        if Node.id node = 0 then Lrc.barrier lrcs.(0) ~id:0)
  with
  | () -> Alcotest.fail "expected Barrier_timeout"
  | exception e -> (
      match Runner.stopped cluster ~waits:(fun i -> Lrc.debug_waits lrcs.(i)) e with
      | Runner.Barrier_timeout, [ message ] ->
          checkb "message names the barrier" true
            (String.length message > 0 && Runner.exit_code Runner.Barrier_timeout = 7)
      | o, detail ->
          Alcotest.failf "classified as %s with %d detail line(s)" (Runner.outcome_name o)
            (List.length detail))

(* every outcome has its own name and exit code, apart from success, the
   preflight refusal and the codes the command-line parser reserves *)
let test_outcome_table () =
  let outcomes =
    Runner.[ Ok; Delivery_failed; Peer_dead; Deadlock; Watchdog; Barrier_timeout ]
  in
  check Alcotest.(list string) "names"
    [ "ok"; "delivery-failed"; "peer-dead"; "deadlock"; "watchdog"; "barrier-timeout" ]
    (List.map Runner.outcome_name outcomes);
  let codes = List.map Runner.exit_code outcomes in
  checki "ok exits 0" 0 (List.hd codes);
  checkb "codes distinct" true (List.length (List.sort_uniq compare codes) = 6);
  checkb "failures clear of 0, the refusal and 123-125" true
    (List.for_all (fun c -> c > Runner.preflight_refused && c < 123) (List.tl codes));
  check Alcotest.(list int) "the table documents the refusal and every failure"
    (Runner.preflight_refused :: List.tl codes)
    (List.map fst Runner.exit_table);
  checkb "an unnamed exception is no outcome" true (Runner.classify (Failure "bug") = None)

(* ------------------------------------------------------------------ *)
(* recv_timeout                                                        *)
(* ------------------------------------------------------------------ *)

let test_recv_timeout () =
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let eps = Mp.install cluster in
  Cluster.run_app cluster (fun node ->
      let ep = eps.(Node.id node) in
      if Mp.rank ep = 0 then begin
        Engine.delay (Time.us 200);
        Mp.send ep ~dst:1 ~tag:3 33;
        Mp.send ep ~dst:1 ~tag:4 44
      end
      else begin
        (try
           ignore (Mp.recv_timeout ep ~tag:3 ~timeout:Time.zero ());
           Alcotest.fail "non-positive timeout accepted"
         with Invalid_argument _ -> ());
        (match Mp.recv_timeout ep ~tag:3 ~timeout:(Time.us 10) () with
        | None -> ()
        | Some _ -> Alcotest.fail "nothing was sent yet");
        Engine.delay (Time.us 500);
        (* the tag-3 message arrived after the waiter gave up: it must be
           parked in the mailbox, not handed to the dead waiter *)
        (match Mp.try_recv ep ~tag:3 () with
        | Some e -> checki "late message parked in the mailbox" 33 e.Mp.value
        | None -> Alcotest.fail "late message was lost");
        match Mp.recv_timeout ep ~tag:4 ~timeout:(Time.ms 5) () with
        | Some e -> checki "delivery before the deadline" 44 e.Mp.value
        | None -> Alcotest.fail "timed out despite delivery"
      end)

(* ------------------------------------------------------------------ *)
(* Backoff cap                                                         *)
(* ------------------------------------------------------------------ *)

let test_backoff_cap_counted () =
  (* a 3 ms outage against a 200 us RTO ceiling: the retransmission timer
     must clamp (and count the clamps) instead of doubling past the run *)
  let faults =
    {
      Faults.none with
      Faults.link_down = [ { Faults.w_node = 1; w_from = Time.zero; w_upto = Time.ms 3 } ];
    }
  in
  let reliability =
    { Reliable.default with Reliable.timeout = Time.us 50; max_tries = 40; max_rto = Time.us 200 }
  in
  let cluster : int Mp.envelope Cluster.t =
    Cluster.create ~faults ~reliability ~nic_kind:cni ~nodes:2 ()
  in
  let eps = Mp.install cluster in
  let got = ref (-1) in
  Cluster.run_app cluster (fun node ->
      let ep = eps.(Node.id node) in
      if Mp.rank ep = 0 then Mp.send ep ~dst:1 ~tag:1 99
      else got := (Mp.recv ep ~tag:1 ()).Mp.value);
  checki "delivered after the outage" 99 !got;
  match Nic.rel_stats (Node.nic (Cluster.node cluster 0)) with
  | None -> Alcotest.fail "reliability should be on"
  | Some s ->
      checkb "retransmissions carried the frame across" true (s.Nic.retransmits > 0);
      checkb "capped arms were counted" true (s.Nic.rto_capped > 0)

(* A crash window shorter than the RTO: the timer armed before the crash is
   still pending when the restart re-sends the entry, and it must stay dead.
   Node 1's link is down until 3 ms, so the re-sent frame is lost too. The
   frame then retransmits exactly once before its first backoff, at
   restart + RTO, and not also at the pre-crash deadline. *)
let test_crash_kills_pending_timer () =
  let rto = Time.ms 1 and crash_at = Time.us 100 and restart_at = Time.us 400 in
  let faults =
    {
      Faults.none with
      Faults.schedule =
        [
          { Faults.e_at = crash_at; e_node = 0; e_fault = Faults.Crash { scrub = false } };
          { Faults.e_at = restart_at; e_node = 0; e_fault = Faults.Restart };
        ];
      link_down = [ { Faults.w_node = 1; w_from = Time.zero; w_upto = Time.ms 3 } ];
    }
  in
  let reliability = { Reliable.default with Reliable.timeout = rto } in
  let cluster : int Mp.envelope Cluster.t =
    Cluster.create ~faults ~reliability ~nic_kind:cni ~nodes:2 ()
  in
  let eps = Mp.install cluster in
  let retransmits () =
    match Nic.rel_stats (Node.nic (Cluster.node cluster 0)) with
    | Some s -> s.Nic.retransmits
    | None -> Alcotest.fail "reliability should be on"
  in
  let due = Time.(restart_at + rto) in
  let got = ref (-1) in
  Cluster.run_app cluster (fun node ->
      let ep = eps.(Node.id node) in
      if Mp.rank ep = 0 then Mp.send ep ~dst:1 ~tag:1 99
      else begin
        Engine.delay Time.(due - Time.ns 1);
        checki "no retransmission before restart + RTO" 0 (retransmits ());
        Engine.delay (Time.ns 2);
        checki "one retransmission at restart + RTO" 1 (retransmits ());
        (* the first backoff doubles the RTO *)
        Engine.delay Time.((rto * 2) - Time.ns 2);
        checki "still one just before the first backoff" 1 (retransmits ());
        got := (Mp.recv ep ~tag:1 ()).Mp.value
      end);
  checki "delivered once the link is back" 99 !got

(* The deadline FIFO against the per-frame timers it stands in for: node 0
   sends a random stream to node 1 over a fabric that drops whole frames
   (acks included). The n-th retransmission of a frame must happen exactly
   when a timer armed at its submit would fire it, at
   submit + RTO * (2^n - 1), and every message must arrive exactly once. *)
let fifo_matches_per_frame_timers =
  QCheck.Test.make ~count:20 ~name:"deadline FIFO retransmits at per-frame deadlines"
    QCheck.(
      triple (int_range 0 10_000) (int_range 1 30)
        (list_of_size Gen.(int_range 1 25) (int_bound 40)))
    (fun (seed, drop_pct, gaps_us) ->
      let rto = Time.us 50 in
      let faults =
        { Faults.none with Faults.seed; frame_drop = float_of_int drop_pct /. 100. }
      in
      let reliability =
        { Reliable.default with Reliable.timeout = rto; max_tries = 40; max_rto = Time.s 1 }
      in
      let cluster : int Mp.envelope Cluster.t =
        Cluster.create ~faults ~reliability ~nic_kind:cni ~nodes:2 ()
      in
      let eps = Mp.install cluster in
      let n = List.length gaps_us in
      (* node 0's frames to node 1 are sequenced 1, 2, ... in send order *)
      let submitted_ps = Array.make (n + 1) 0 in
      let got = ref [] in
      Trace.set_capacity 65536;
      Trace.enable ~cats:[ Trace.Nic ] ();
      Fun.protect
        ~finally:(fun () ->
          Trace.disable ();
          Trace.clear ())
        (fun () ->
          Cluster.run_app cluster (fun node ->
              let ep = eps.(Node.id node) in
              if Mp.rank ep = 0 then
                List.iteri
                  (fun i gap ->
                    Engine.delay (Time.us gap);
                    Mp.send ep ~dst:1 ~tag:1 i;
                    submitted_ps.(i + 1) <- Time.to_ps (Engine.now (Node.engine node)))
                  gaps_us
              else
                for _ = 1 to n do
                  got := (Mp.recv ep ~tag:1 ()).Mp.value :: !got
                done);
          let sent = Hashtbl.create 16 in
          let on_time = ref true in
          Trace.iter (fun r ->
              if r.Trace.label = "retransmit" && r.Trace.node = 0 then begin
                let seq = r.Trace.payload in
                let k = 1 + Option.value (Hashtbl.find_opt sent seq) ~default:0 in
                Hashtbl.replace sent seq k;
                let due = submitted_ps.(seq) + (Time.to_ps rto * ((1 lsl k) - 1)) in
                if r.Trace.t_ps <> due then on_time := false
              end);
          !on_time && List.sort compare !got = List.init n Fun.id))

let () =
  Alcotest.run "chaos"
    [
      ( "recovery",
        [
          Alcotest.test_case "dsm recovers from crashes" `Quick test_dsm_recovers;
          Alcotest.test_case "dsm recovers from scrubbed crashes" `Quick
            test_dsm_recovers_scrubbed;
          Alcotest.test_case "chaos metrics deterministic" `Quick test_chaos_deterministic;
          QCheck_alcotest.to_alcotest dsm_qcheck;
          QCheck_alcotest.to_alcotest ring_qcheck;
        ] );
      ( "board state",
        [
          Alcotest.test_case "scrub cycles preserve board memory" `Quick
            test_scrub_cycles_preserve_board_memory;
          Alcotest.test_case "collective parity between crashes" `Quick
            test_collective_parity_between_crashes;
        ] );
      ( "structured failure",
        [
          Alcotest.test_case "watchdog fires on deliberate deadlock" `Quick
            test_watchdog_fires_on_deliberate_deadlock;
          Alcotest.test_case "peer dead mid-send" `Quick test_peer_dead_mid_send;
          Alcotest.test_case "barrier timeout classified" `Quick
            test_barrier_timeout_classified;
          Alcotest.test_case "outcome table" `Quick test_outcome_table;
        ] );
      ( "timeouts",
        [
          Alcotest.test_case "recv_timeout" `Quick test_recv_timeout;
          Alcotest.test_case "backoff cap counted" `Quick test_backoff_cap_counted;
          Alcotest.test_case "crash kills a pending timer" `Quick
            test_crash_kills_pending_timer;
          QCheck_alcotest.to_alcotest fifo_matches_per_frame_timers;
        ] );
    ]
