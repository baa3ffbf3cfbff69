(* Weak vs. strong orders (Section 3.6): under the weak order conflicting
   activities of different processes overlap their execution while each
   local commit is held behind every prescribed predecessor's; transient
   failed attempts of a retriable happen inside its open local transaction
   and hold the dependent. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Generator = Tpm_workload.Generator
module Metrics = Tpm_sim.Metrics

let check = Alcotest.check

(* two single-activity processes on the same conflicting service *)
let conflicting_pair ~kind =
  let mk pid =
    Process.make_exn ~pid
      ~activities:
        [ Activity.make ~proc:pid ~act:1 ~service:"svc0" ~kind ~subsystem:"ss0" () ]
      ~prec:[] ~pref:[]
  in
  (mk 1, mk 2)

let params = { Generator.default_params with services = 2; subsystems = 1 }

let run_pair ~weak_order ~kind =
  let rms = Generator.rms params () in
  let spec = Generator.spec params in
  let config = { Scheduler.default_config with weak_order } in
  let t = Scheduler.create ~config ~spec ~rms () in
  let p1, p2 = conflicting_pair ~kind in
  Scheduler.submit t p1;
  Scheduler.submit t ~at:0.1 p2;
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "RED" true (Criteria.red h);
  (t, h)

let test_weak_overlaps () =
  (* strong: P2 starts only after P1's commit -> makespan past 2.0;
     weak: executions overlap, P2 commits just after P1 -> makespan ~1.x *)
  let t_strong, _ = run_pair ~weak_order:false ~kind:Activity.Compensatable in
  let t_weak, _ = run_pair ~weak_order:true ~kind:Activity.Compensatable in
  check Alcotest.bool "weak order shortens the makespan" true
    (Scheduler.now t_weak < Scheduler.now t_strong);
  check Alcotest.bool "strong order serializes executions" true
    (Scheduler.now t_strong >= 2.0)

let test_weak_commit_order_respected () =
  let _, h = run_pair ~weak_order:true ~kind:Activity.Compensatable in
  (* the history must order the two conflicting occurrences P1 before P2 *)
  let acts = Schedule.activities h in
  check Alcotest.int "both occurrences present" 2 (List.length acts);
  (match acts with
  | [ first; second ] ->
      check Alcotest.int "P1 commits first" 1 (Activity.instance_proc first);
      check Alcotest.int "P2 commits second" 2 (Activity.instance_proc second)
  | _ -> Alcotest.fail "unexpected history");
  check Alcotest.bool "serializable" true (Criteria.serializable h)

let test_weak_hold_on_retry () =
  (* the predecessor is retriable and fails a few times: its failed
     attempts stay inside its open local transaction, so the
     weakly-ordered successor's local commit is held until it succeeds.
     (Restarts on a predecessor's local abort: test_enforce.ml.) *)
  (* every svc0 invocation fails until the guaranteed third attempt *)
  let reg = Tpm_subsys.Service.Registry.create () in
  let () =
    Tpm_subsys.Service.Registry.register reg
      (Tpm_subsys.Service.make ~name:"svc0" ~reads:[ "k0" ] ~writes:[ "k0" ]
         ~compensation:(Tpm_subsys.Service.Inverse_service "svc0_inv")
         (fun tx ~args:_ ->
           Tpm_kv.Tx.set tx "k0" (Tpm_kv.Value.Int 1);
           Tpm_kv.Value.Int 1));
    Tpm_subsys.Service.Registry.register reg
      (Tpm_subsys.Service.make ~name:"svc0_inv" ~reads:[ "k0" ] ~writes:[ "k0" ]
         (fun tx ~args:_ ->
           Tpm_kv.Tx.delete tx "k0";
           Tpm_kv.Value.Nil))
  in
  let rms =
    [ Tpm_subsys.Rm.create ~name:"ss0" ~registry:reg ~fail_prob:(fun _ -> 1.0)
        ~max_failures:3 () ]
  in
  let spec = Generator.spec params in
  let config = { Scheduler.default_config with weak_order = true } in
  let t = Scheduler.create ~config ~spec ~rms () in
  let p1, p2 = conflicting_pair ~kind:Activity.Retriable in
  Scheduler.submit t p1;
  Scheduler.submit t ~at:0.1 p2;
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.int "the dependent's local commit was held once" 1
    (Scheduler.enforcement_held t);
  check Alcotest.int "one weak commit wait" 1
    (Metrics.count (Scheduler.metrics t) "weak_commit_waits");
  let h = Scheduler.history t in
  check (Alcotest.list Alcotest.int) "P1's occurrence precedes P2's" [ 1; 2 ]
    (List.map Activity.instance_proc (Schedule.activities h));
  check Alcotest.bool "PRED" true (Criteria.pred h)

(* P3's svc2 conflicts with both P1's svc0 and P2's svc1, which are in
   flight when P3 dispatches: its local commit must wait for both
   predecessors, not only the first one found. *)
let test_weak_two_predecessors () =
  let params3 = { Generator.default_params with services = 3; subsystems = 1 } in
  let rms = Generator.rms params3 () in
  let spec =
    Conflict.union
      (Generator.spec { params3 with Generator.conflict_density = 0.0 })
      (Conflict.of_pairs [ ("svc0", "svc2"); ("svc1", "svc2") ])
  in
  let config =
    {
      Scheduler.default_config with
      weak_order = true;
      service_time =
        (fun s -> if s = "svc0" then 3.0 else if s = "svc1" then 5.0 else 1.0);
    }
  in
  let t = Scheduler.create ~config ~spec ~rms () in
  let mk pid service =
    Process.make_exn ~pid
      ~activities:
        [
          Activity.make ~proc:pid ~act:1 ~service ~kind:Activity.Compensatable
            ~subsystem:"ss0" ();
        ]
      ~prec:[] ~pref:[]
  in
  Scheduler.submit t (mk 1 "svc0");
  Scheduler.submit t ~at:0.05 (mk 2 "svc1");
  Scheduler.submit t ~at:0.1 (mk 3 "svc2");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "PRED" true (Criteria.pred h);
  check (Alcotest.list Alcotest.int) "P2's occurrence precedes P3's" [ 2; 3 ]
    (List.filter (fun p -> p <> 1) (List.map Activity.instance_proc (Schedule.activities h)))

(* weak-order histories stay PRED: a hand-sized batch, and the workload
   of `tpm random --weak -n 16` (default parameters, density 0.2, failure
   rate 0.1) on seeds whose histories violated PRED when a dependent only
   waited for its first conflicting predecessor, or (quasi mode) when a
   quasi-commit ignored a predecessor's conflicting in-flight activity *)
let test_weak_random_workload_still_pred () =
  let run ?(mode = Scheduler.Deferred) ~label ~params ~fail_rate ~seed ~batch_seed ~n ~gap
      () =
    let rms = Generator.rms params ~fail_prob:(fun _ -> fail_rate) ~seed () in
    let spec = Generator.spec params in
    let config = { Scheduler.default_config with mode; weak_order = true; seed } in
    let t = Scheduler.create ~config ~spec ~rms () in
    List.iteri
      (fun i p -> Scheduler.submit t ~at:(gap *. float_of_int i) p)
      (Generator.batch ~seed:batch_seed params ~n);
    Scheduler.run t;
    check Alcotest.bool (label ^ " finished") true (Scheduler.finished t);
    let h = Scheduler.history t in
    check Alcotest.bool (label ^ " legal") true (Schedule.legal h);
    check Alcotest.bool (label ^ " PRED") true (Criteria.pred h)
  in
  run ~label:"batch 21"
    ~params:{ Generator.default_params with services = 8; conflict_density = 0.3 }
    ~fail_rate:0.0 ~seed:1 ~batch_seed:21 ~n:6 ~gap:0.3 ();
  List.iter
    (fun (mode, seed) ->
      run ~mode
        ~label:
          (Printf.sprintf "tpm random%s seed %d"
             (if mode = Scheduler.Quasi then " --mode quasi" else "")
             seed)
        ~params:{ Generator.default_params with conflict_density = 0.2 }
        ~fail_rate:0.1 ~seed ~batch_seed:(seed * 100) ~n:16 ~gap:0.4 ())
    [
      (Scheduler.Deferred, 1);
      (Scheduler.Deferred, 4);
      (Scheduler.Deferred, 6);
      (Scheduler.Deferred, 7);
      (Scheduler.Quasi, 15);
    ]

let suite =
  [
    Alcotest.test_case "weak order overlaps executions" `Quick test_weak_overlaps;
    Alcotest.test_case "weak order preserves commit order" `Quick test_weak_commit_order_respected;
    Alcotest.test_case "retriable retry holds dependents" `Quick test_weak_hold_on_retry;
    Alcotest.test_case "dependent waits for every predecessor" `Quick
      test_weak_two_predecessors;
    Alcotest.test_case "weak order keeps histories PRED" `Quick test_weak_random_workload_still_pred;
  ]
