(* Scenario profiles: the (topology × workload × faults × rx policy × node
   count) product flattened into one record with a line-oriented text form.
   Parsing is strict about shape (first bad line wins, with its number);
   semantics are checked by [validate], which collects every problem. *)

module Time = Cni_engine.Time
module Params = Cni_machine.Params
module Topology = Cni_atm.Topology
module Faults = Cni_atm.Faults
module Nic = Cni_nic.Nic
module Kv_serve = Cni_apps.Kv_serve

type nic = Cni | Osiris | Standard
type rx = Interrupt | Poll | Hybrid | Adaptive

type profile = {
  name : string;
  summary : string;
  clients : int;
  servers : int;
  requests_per_client : int;
  arrival : Arrival.kind;
  value_bytes : int;
  put_pct : int;
  service_cycles : int;
  seed : int;
  nic : nic;
  aih : bool;
  rx_policy : rx;
  rx_batch : int;
  topology : Topology.kind;
  faults : Faults.config;
}

let default =
  {
    name = "";
    summary = "";
    clients = 12;
    servers = 4;
    requests_per_client = 40;
    arrival = Arrival.Poisson { rate_per_s = 20_000. };
    value_bytes = 256;
    put_pct = 20;
    service_cycles = 400;
    seed = 42;
    nic = Cni;
    aih = true;
    rx_policy = Hybrid;
    rx_batch = 1;
    topology = Topology.Single;
    faults = Faults.none;
  }

let nic_names = [ ("cni", Cni); ("osiris", Osiris); ("standard", Standard) ]

let rx_names =
  [ ("interrupt", Interrupt); ("poll", Poll); ("hybrid", Hybrid); ("adaptive", Adaptive) ]

let nic_kind ?mc_bytes ?(aih = true) ?(rx_policy = Hybrid) ?(rx_batch = 1) = function
  | Cni ->
      let rx_policy =
        match rx_policy with
        | Interrupt -> Nic.Rx_interrupt
        | Poll -> Nic.Rx_poll
        | Hybrid -> Nic.Rx_hybrid
        | Adaptive -> Nic.Rx_adaptive Nic.default_rx_adaptive
      in
      Runner.cni ?mc_bytes ~aih ~rx_policy ~rx_batch ()
  | Osiris -> Runner.osiris
  | Standard -> Runner.standard

let offered_rps p = float_of_int p.clients *. Arrival.mean_rate_per_s p.arrival

let kv_config p =
  {
    Kv_serve.clients = p.clients;
    servers = p.servers;
    requests_per_client = p.requests_per_client;
    arrival =
      (fun client ->
        let g = Arrival.create ~seed:(p.seed + (104729 * (client + 1))) p.arrival in
        fun () -> Arrival.next_gap g);
    value_bytes = p.value_bytes;
    put_pct = p.put_pct;
    seed = p.seed;
    service_cycles = p.service_cycles;
  }

(* ------------------------------------------------------------------ *)
(* Validation and preflight                                            *)
(* ------------------------------------------------------------------ *)

let name_ok n =
  n <> ""
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-') n
  && n.[0] <> '-'

(* The profile's own consistency, labelled as the doctor prints it;
   [validate] is these checks' problems, flattened. *)
let checks p =
  let nodes = p.clients + p.servers in
  let fields =
    let name =
      if name_ok p.name then []
      else
        [
          Printf.sprintf
            "name must be non-empty lowercase-kebab ([a-z0-9-], not starting with '-'): %S"
            p.name;
        ]
    in
    let kv = match Kv_serve.validate (kv_config p) with Ok () -> [] | Error es -> es in
    match name @ kv @ Preflight.errors [ Preflight.rx_batch p.rx_batch ] with
    | [] ->
        Ok
          (lazy
            (Printf.sprintf "%d clients x %d requests against %d servers" p.clients
               p.requests_per_client p.servers))
    | es -> Error es
  in
  let arrival =
    match Arrival.validate_kind p.arrival with
    | Ok () ->
        Ok
          (lazy
            (Printf.sprintf "%s (%.0f req/s offered)" (Arrival.kind_to_string p.arrival)
               (offered_rps p)))
    | Error es -> Error es
  in
  [
    ("profile fields", fields);
    ("arrival process", arrival);
    ("topology", Preflight.topology p.topology ~nodes);
    ("fault model", Preflight.faults ~nodes p.faults);
  ]

let validate p =
  match Preflight.errors (List.map snd (checks p)) with [] -> Ok () | es -> Error es

let utilisation p =
  if p.service_cycles = 0 then 0.
  else
    offered_rps p *. float_of_int p.service_cycles
    /. (float_of_int p.servers *. float_of_int Params.default.Params.cpu_hz)

let preflight p =
  let capacity =
    let u = utilisation p in
    if u >= 1. then
      Error
        [
          Printf.sprintf
            "offered load is %.0f%% of aggregate service capacity — the queue (and the \
             tail) grows without bound"
            (u *. 100.);
        ]
    else Ok (lazy (Printf.sprintf "service utilisation %.1f%%" (u *. 100.)))
  in
  List.map
    (fun (label, c) -> Preflight.verdict label c)
    (checks p
    @ [
        ("service capacity", capacity);
        ( "firmware line-rate admission",
          Preflight.line_rate Params.default ~nodes:(p.clients + p.servers) );
      ])

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

let on_off = [ ("on", true); ("off", false) ]
let name_of names v = fst (List.find (fun (_, v') -> v' = v) names)

(* the fault block is Faults' own grammar; only its seed key is renamed,
   because a profile's [seed] is the master seed *)
let fault_seed_key = "fault-seed"

let to_string p =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "name %s" p.name;
  if p.summary <> "" then line "summary %s" p.summary;
  line "clients %d" p.clients;
  line "servers %d" p.servers;
  line "requests %d" p.requests_per_client;
  line "arrival %s" (Arrival.kind_to_string p.arrival);
  line "value-bytes %d" p.value_bytes;
  line "put-pct %d" p.put_pct;
  line "service-cycles %d" p.service_cycles;
  line "seed %d" p.seed;
  line "nic %s" (name_of nic_names p.nic);
  line "aih %s" (name_of on_off p.aih);
  line "rx-policy %s" (name_of rx_names p.rx_policy);
  line "rx-batch %d" p.rx_batch;
  line "topology %s" (Topology.kind_to_string p.topology);
  Buffer.add_string b (Faults.config_to_string ~seed_key:fault_seed_key p.faults);
  Buffer.contents b

let enum names s =
  match List.assoc_opt s names with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "expected one of %s, got %S" (String.concat ", " (List.map fst names)) s)

let parse_line p key rest words =
  let parsed set r = Result.map set (Result.map_error (fun e -> key ^ ": " ^ e) r) in
  let int set =
    parsed set
      (Option.to_result (int_of_string_opt rest)
         ~none:(Printf.sprintf "expected an integer, got %S" rest))
  in
  match Faults.directive ~seed_key:fault_seed_key p.faults (key :: words) with
  | Some r -> Result.map (fun faults -> { p with faults }) r
  | None -> (
      match key with
      | "name" -> if rest = "" then Error "name needs a value" else Ok { p with name = rest }
      | "summary" -> Ok { p with summary = rest }
      | "clients" -> int (fun clients -> { p with clients })
      | "servers" -> int (fun servers -> { p with servers })
      | "requests" -> int (fun requests_per_client -> { p with requests_per_client })
      | "arrival" -> parsed (fun arrival -> { p with arrival }) (Arrival.kind_of_string rest)
      | "value-bytes" -> int (fun value_bytes -> { p with value_bytes })
      | "put-pct" -> int (fun put_pct -> { p with put_pct })
      | "service-cycles" -> int (fun service_cycles -> { p with service_cycles })
      | "seed" -> int (fun seed -> { p with seed })
      | "nic" -> parsed (fun nic -> { p with nic }) (enum nic_names rest)
      | "aih" -> parsed (fun aih -> { p with aih }) (enum on_off rest)
      | "rx-policy" -> parsed (fun rx_policy -> { p with rx_policy }) (enum rx_names rest)
      | "rx-batch" -> int (fun rx_batch -> { p with rx_batch })
      | "topology" -> parsed (fun topology -> { p with topology }) (Topology.kind_of_string rest)
      | k -> Error (Printf.sprintf "unknown key %S" k))

let of_string text =
  let rec go ln p = function
    | [] -> if p.name = "" then Error "profile has no name line" else Ok p
    | raw :: lines -> (
        let line =
          String.trim
            (match String.index_opt raw '#' with Some j -> String.sub raw 0 j | None -> raw)
        in
        if line = "" then go (ln + 1) p lines
        else
          let key, rest =
            match String.index_opt line ' ' with
            | Some j ->
                (String.sub line 0 j, String.trim (String.sub line j (String.length line - j)))
            | None -> (line, "")
          in
          let words = List.filter (fun f -> f <> "") (String.split_on_char ' ' rest) in
          match parse_line p key rest words with
          | Ok p -> go (ln + 1) p lines
          | Error e -> Error (Printf.sprintf "line %d: %s" ln e))
  in
  go 1 default (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let run ?watchdog p =
  (match validate p with
  | Ok () -> ()
  | Error errs -> invalid_arg ("Scenario.run: " ^ String.concat "; " errs));
  Kv_serve.run ?watchdog ~faults:p.faults ~topology:p.topology
    ~nic_kind:(nic_kind ~aih:p.aih ~rx_policy:p.rx_policy ~rx_batch:p.rx_batch p.nic)
    (kv_config p)

(* ------------------------------------------------------------------ *)
(* Built-ins                                                           *)
(* ------------------------------------------------------------------ *)

let builtins =
  [
    {
      default with
      name = "baseline-16";
      summary = "single-switch CNI hybrid at moderate Poisson load: the reference tail";
    };
    {
      default with
      name = "baseline-64";
      summary = "the reference workload scaled to 64 nodes on one switch";
      clients = 48;
      servers = 16;
    };
    {
      default with
      name = "hot-poll-16";
      summary = "high offered load through the host receive path, pure polling";
      arrival = Arrival.Poisson { rate_per_s = 100_000. };
      requests_per_client = 60;
      aih = false;
      rx_policy = Poll;
    };
    {
      default with
      name = "hot-interrupt-16";
      summary = "high offered load through the host receive path, an interrupt per packet";
      arrival = Arrival.Poisson { rate_per_s = 100_000. };
      requests_per_client = 60;
      aih = false;
      rx_policy = Interrupt;
    };
    {
      default with
      name = "burst-faulty-torus";
      summary = "bursty clients on a lossy 3D torus with a server crash mid-run";
      arrival =
        Arrival.Bursty
          {
            on_rate_per_s = 100_000.;
            off_rate_per_s = 0.;
            mean_on_us = 200.;
            mean_off_us = 600.;
          };
      topology = Topology.Torus { dims = None };
      faults =
        {
          Faults.none with
          Faults.seed = 7;
          cell_loss = 1e-4;
          schedule =
            [
              { Faults.e_at = Time.us 400; e_node = 1; e_fault = Faults.Crash { scrub = false } };
              { Faults.e_at = Time.us 700; e_node = 1; e_fault = Faults.Restart };
            ];
        };
    };
    {
      default with
      name = "standard-nic-16";
      summary = "the conventional interface under the reference load: every packet interrupts";
      nic = Standard;
    };
  ]

let find name = List.find_opt (fun p -> p.name = name) builtins
