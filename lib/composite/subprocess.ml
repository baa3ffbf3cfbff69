(* Multi-level composition (Section 3.6, after Börger et al.'s
   multi-level transaction control): a contiguous sub-DAG of a process's
   activities is declared a {e subprocess} and becomes one schedulable
   unit at the parent level.  The parent scheduler admits the whole group
   at once — against the union of its members' conflict footprints — and
   the inner engine (the process's own precedence order) then schedules
   the children without further parent-level admission.  Parent/child
   order obligations reconcile because the group claims its full
   footprint atomically at admission: any conflicting outside activity is
   ordered entirely before or entirely after the subprocess. *)

open Tpm_core

type group = {
  gname : string;
  members : int list;  (* activity ids of the owning process *)
}

let members_mem g n = List.mem n g.members

(* Well-formedness of a grouping over one process (wired into the
   scheduler's submit-time validation next to {!Tpm_core.Flex}):
   - every member exists in the process, groups are non-empty and
     pairwise disjoint;
   - prec-convexity: no activity outside the group lies on a [≪]-path
     between two members (otherwise the subprocess cannot execute as one
     unit — the outsider would have to run in its middle);
   - no member is an alternative target of a choice point outside the
     group (a branch switch would enter the subprocess halfway). *)
let validate proc groups =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_disjoint seen = function
    | [] -> Ok ()
    | g :: rest -> (
        match List.find_opt (fun n -> List.mem n seen) g.members with
        | Some n -> err "group %s: activity %d already grouped" g.gname n
        | None -> check_disjoint (g.members @ seen) rest)
  in
  let check_group g =
    if g.members = [] then err "group %s: empty" g.gname
    else
      match List.find_opt (fun n -> not (Process.mem proc n)) g.members with
      | Some n -> err "group %s: unknown activity %d" g.gname n
      | None -> (
          let outside =
            List.filter (fun n -> not (members_mem g n)) (Process.activity_ids proc)
          in
          match
            List.find_opt
              (fun x ->
                List.exists (fun a -> Process.before proc a x) g.members
                && List.exists (fun b -> Process.before proc x b) g.members)
              outside
          with
          | Some x -> err "group %s: activity %d interleaves the subprocess" g.gname x
          | None -> (
              match
                List.find_opt
                  (fun x ->
                    List.exists (members_mem g) (Process.alternatives proc x)
                    && List.length (Process.alternatives proc x) > 1)
                  outside
              with
              | Some x ->
                  err "group %s: choice point %d branches into the subprocess" g.gname x
              | None -> Ok ()))
  in
  match check_disjoint [] groups with
  | Error _ as e -> e
  | Ok () ->
      List.fold_left
        (fun acc g -> match acc with Error _ -> acc | Ok () -> check_group g)
        (Ok ()) groups

let validate_exn proc groups =
  match validate proc groups with
  | Ok () -> ()
  | Error msg ->
      invalid_arg (Printf.sprintf "Subprocess: process %d: %s" (Process.pid proc) msg)

(* the union footprint the group admits with: its members' services *)
let services proc g =
  List.map (fun n -> (Process.find proc n).Activity.service) g.members
  |> List.sort_uniq compare

let group_of groups n = List.find_opt (fun g -> members_mem g n) groups
