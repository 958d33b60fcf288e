(* Front-end admission: the shared preflight names the failing check for
   bad application configs without raising, and the cni_sim binary turns
   bad input into a verdict list and a documented exit code — never an
   uncaught exception. *)

module Topology = Cni_atm.Topology
module Faults = Cni_atm.Faults
module Params = Cni_machine.Params
module Preflight = Cni_experiments.Preflight
module Runner = Cni_experiments.Runner
module Scenario = Cni_experiments.Scenario

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let app ?(topology = Topology.Single) ?(faults = Faults.none) ?(nic_collectives = false) procs =
  Preflight.app ~params:Params.default ~topology ~procs ~mc_bytes:(32 * 1024) ~faults
    ~nic_collectives

let failing verdicts =
  List.filter_map (fun (l, v) -> match v with Error e -> Some (l, e) | Ok _ -> None) verdicts

let test_app_sizes () =
  List.iter
    (fun (procs, nic_collectives, expect) ->
      let vs = app ~nic_collectives procs in
      checki (Printf.sprintf "7 verdicts at --procs %d" procs) 7 (List.length vs);
      let bad = failing vs in
      match expect with
      | None ->
          checki (Printf.sprintf "--procs %d passes" procs) 0 (List.length bad)
      | Some needle ->
          checkb
            (Printf.sprintf "--procs %d fails naming %S" procs needle)
            true
            (List.length bad = 1 && contains (snd (List.hd bad)) needle))
    [
      (1, false, None);
      (1, true, None);
      (0, false, Some "at least one node");
      (257, false, None);
      (257, true, Some "at most 256 nodes");
      (300, true, Some "at most 256 nodes");
    ]

let test_app_rejections () =
  let fails what vs needle =
    let bad = failing vs in
    checkb
      (Printf.sprintf "%s rejected naming %S" what needle)
      true
      (List.exists (fun (_, e) -> contains e needle) bad)
  in
  fails "loss 1.5" (app ~faults:{ Faults.none with Faults.cell_loss = 1.5 } 8) "loss 1.5";
  fails "torus 2x2x2 at 16"
    (app ~topology:(Topology.Torus { dims = Some (2, 2, 2) }) 16)
    "holds 8 nodes";
  fails "crash of node 0"
    (app
       ~faults:
         {
           Faults.none with
           Faults.schedule =
             [
               {
                 Faults.e_at = Cni_engine.Time.us 100;
                 e_node = 0;
                 e_fault = Faults.Crash { scrub = false };
               };
             ];
         }
       8)
    "node 0";
  checkb "rx-batch 0 rejected" true (Result.is_error (Preflight.rx_batch 0));
  (* several problems in one config are all reported *)
  checki "every failing check listed" 2
    (List.length
       (failing
          (app ~nic_collectives:true ~faults:{ Faults.none with Faults.cell_loss = -1. } 300)))

(* ------------------------------------------------------------------ *)
(* The binary                                                          *)
(* ------------------------------------------------------------------ *)

let cni_sim =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/cni_sim.exe"

(* exit code and combined output of one invocation *)
let invoke args =
  let out =
    Filename.temp_file ~temp_dir:(Filename.dirname Sys.executable_name) "cni_sim" ".out"
  in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cni_sim) args (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let test_doctor_never_raises () =
  List.iter
    (fun (args, expected) ->
      let code, text = invoke ("doctor " ^ args) in
      checki (Printf.sprintf "doctor %s exit code" args) expected code;
      checkb (Printf.sprintf "doctor %s prints verdicts" args) true
        (contains text "check(s) failed");
      checkb (Printf.sprintf "doctor %s raises nothing" args) false
        (contains text "uncaught exception"))
    [ ("--procs 1", 0); ("--procs 0", 1); ("--procs 257", 0); ("--procs 257 --nic-collectives", 1) ]

let test_run_rejects_bad_input () =
  List.iter
    (fun args ->
      let code, text = invoke ("run --app jacobi --size 32 --iterations 1 " ^ args) in
      checki (Printf.sprintf "run %s exit code" args) 2 code;
      checkb (Printf.sprintf "run %s lists the failing check" args) true (contains text "FAIL  ");
      checkb (Printf.sprintf "run %s raises nothing" args) false
        (contains text "uncaught exception"))
    [
      "--procs 0";
      "--rx-batch 0";
      "--loss 1.5";
      "--topology torus:2x2x2 --procs 16";
      "--nic-collectives --procs 300";
    ]

(* a run that a fault ends reports its outcome and exits with the
   outcome's code, whether it is an application run or a serving scenario *)
let test_faults_end_in_an_outcome () =
  let lossy_scenario =
    Filename.temp_file ~temp_dir:(Filename.dirname Sys.executable_name) "lossy" ".scn"
  in
  Out_channel.with_open_bin lossy_scenario (fun oc ->
      output_string oc
        (Scenario.to_string (Option.get (Scenario.find "baseline-16")));
      output_string oc "loss 0.3\n");
  let failed = Runner.exit_code Runner.Delivery_failed in
  let runs =
    [
      ("run --app cholesky --matrix small --procs 2 --loss 0.3", "delivery-failed", failed);
      ("scenario run --file " ^ Filename.quote lossy_scenario, "delivery-failed", failed);
      ("run --app jacobi --size 32 --iterations 1 --procs 2", "ok", 0);
    ]
  in
  List.iter
    (fun (args, outcome, expected) ->
      let code, text = invoke args in
      checki (Printf.sprintf "%s exit code" args) expected code;
      checkb
        (Printf.sprintf "%s prints outcome %s" args outcome)
        true
        (match Str.search_forward (Str.regexp ("^outcome +" ^ outcome ^ "$")) text 0 with
        | _ -> true
        | exception Not_found -> false);
      checkb (Printf.sprintf "%s raises nothing" args) false
        (contains text "uncaught exception"))
    runs;
  Sys.remove lossy_scenario

let () =
  Alcotest.run "cli"
    [
      ( "preflight",
        [
          Alcotest.test_case "app sizes never raise" `Quick test_app_sizes;
          Alcotest.test_case "app rejections" `Quick test_app_rejections;
        ] );
      ( "binary",
        [
          Alcotest.test_case "doctor never raises" `Quick test_doctor_never_raises;
          Alcotest.test_case "run rejects bad input" `Quick test_run_rejects_bad_input;
          Alcotest.test_case "faults end in an outcome" `Quick test_faults_end_in_an_outcome;
        ] );
    ]
