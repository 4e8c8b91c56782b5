(* vBGP's community-based export control (paper §3.2.1): experiments tag
   announcements with whitelist/blacklist communities naming neighbors, and
   the router propagates each announcement only to the neighbors the tags
   allow. Neighbors are named by their platform-global export id (their
   index in the shared global address pool, §4.4), so a tag written at one
   PoP means the same neighbor everywhere.

   Community layout within the platform's control ASN:
   - value [1]                : internal marker for experiment-originated
                                routes on the backbone mesh
   - value [10000 + id]       : announce only to neighbor [id] (whitelist)
   - value [20000 + id]       : never announce to neighbor [id] (blacklist)
*)

open Bgp

let marker_experiment = 1
let whitelist_base = 10_000
let blacklist_base = 20_000
let max_export_id = 9_999

let check_id id =
  if id < 0 || id > max_export_id then
    invalid_arg "Export_control: export id out of range"

(* Tag: announce only to [id] (repeatable for a set of neighbors). *)
let announce_to ~ctl_asn id =
  check_id id;
  Community.make ctl_asn (whitelist_base + id)

(* Tag: do not announce to [id]. *)
let block ~ctl_asn id =
  check_id id;
  Community.make ctl_asn (blacklist_base + id)

let experiment_marker ~ctl_asn = Community.make ctl_asn marker_experiment

let is_marker ~ctl_asn c =
  Community.asn c = ctl_asn && Community.value c = marker_experiment

(* A variant's tags decoded once into the export ids they name, so that
   deciding for each of a hundred neighbors is an array scan rather than
   a walk over the community list. *)
type filter = { white : int array; black : int array }

let compile ~ctl_asn communities =
  let white = ref [] and black = ref [] in
  List.iter
    (fun c ->
      if Community.asn c = ctl_asn then begin
        let v = Community.value c in
        if v >= whitelist_base && v <= whitelist_base + max_export_id then
          white := (v - whitelist_base) :: !white
        else if v >= blacklist_base && v <= blacklist_base + max_export_id
        then black := (v - blacklist_base) :: !black
      end)
    communities;
  { white = Array.of_list !white; black = Array.of_list !black }

let mem id a =
  let rec go i = i < Array.length a && (a.(i) = id || go (i + 1)) in
  go 0

(* Should an announcement carrying [f]'s tags go to neighbor [export_id]?
   No tags means "announce everywhere" (paper §3.2.1). *)
let permits f export_id =
  (not (mem export_id f.black))
  && (Array.length f.white = 0 || mem export_id f.white)

let allows ~ctl_asn ~export_id communities =
  permits (compile ~ctl_asn communities) export_id

let rec first_permitted export_id = function
  | [] -> None
  | (v, f) :: rest ->
      if permits f export_id then Some v else first_permitted export_id rest

(* What a neighbor no tag names hears: the first variant without a
   whitelist (a blacklist only ever excludes the ids it names). *)
let rec first_untagged = function
  | [] -> None
  | (v, f) :: rest ->
      if Array.length f.white = 0 then Some v else first_untagged rest

let iter_named fn f =
  Array.iter fn f.white;
  Array.iter fn f.black

let names f export_id = mem export_id f.white || mem export_id f.black
