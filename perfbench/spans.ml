(* The traced run's span recorder.

   Every call the benchmark makes into a layer of the program can be
   wrapped in a span: a name, a start and an end on [Obs.Clock], the
   span that caused it, and (on serve-mix) the request it belongs to.
   Spans live in memory until the run ends and are then written out as
   JSON lines.  A span's self time is its duration minus the part of
   its interval that its children cover; children may overlap (two
   in-flight requests under one phase), so coverage is the length of
   the union of their intervals. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  req : int option;
}

type t = {
  clock : unit -> float;
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : int list;  (* open [with_span] ids, innermost first *)
}

let create ?(clock = Obs.Clock.now) () = { clock; spans = []; next = 0; stack = [] }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let current t = match t.stack with id :: _ -> Some id | [] -> None

let add t ?parent ?req ~name ~start ~stop () =
  let id = fresh t in
  let parent = match parent with Some _ -> parent | None -> current t in
  t.spans <- { id; name; start; stop; parent; req } :: t.spans;
  id

let with_span t ?req name f =
  let id = fresh t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let start = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let stop = t.clock () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; start; stop; parent; req } :: t.spans)
    f

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(* Length of the union of [intervals], each first clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sweep acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | None -> sweep acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> sweep acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> sweep (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0. None (List.sort compare clipped)

let duration s = s.stop -. s.start

(* Self time of every span, in id order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p -> Hashtbl.replace children p ((s.start, s.stop) :: Option.value ~default:[] (Hashtbl.find_opt children p)))
        s.parent)
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Summed self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The traced run's attribution check.  Only leaf spans (spans without
   children) count as attributed: a wrapper such as one whole
   [Engine.census] call explains nothing by itself, so its self time is
   unattributed like any other gap.  [unattributed spans] is the share
   of the root spans' wall-clock that no leaf span covers. *)
let unattributed spans =
  let by_id = Hashtbl.create 64 and has_children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      Option.iter (fun p -> Hashtbl.replace has_children p ()) s.parent)
    spans;
  let rec root s = match s.parent with None -> s.id | Some p -> root (Hashtbl.find by_id p) in
  let leaves = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent <> None && not (Hashtbl.mem has_children s.id) then
        let r = root s in
        Hashtbl.replace leaves r ((s.start, s.stop) :: Option.value ~default:[] (Hashtbl.find_opt leaves r)))
    spans;
  let roots = List.filter (fun s -> s.parent = None) spans in
  let wall = List.fold_left (fun a s -> a +. duration s) 0. roots in
  let gaps =
    List.fold_left
      (fun a s ->
        let kids = Option.value ~default:[] (Hashtbl.find_opt leaves s.id) in
        a +. duration s -. covered ~lo:s.start ~hi:s.stop kids)
      0. roots
  in
  if wall > 0. then gaps /. wall else 0.

(* Layers must explain at least 90% of the traced wall-clock. *)
let flagged share = share > 0.10

let to_jsonl spans =
  let opt = function Some i -> Wire.Int i | None -> Wire.Null in
  String.concat ""
    (List.map
       (fun s ->
         Wire.to_string
           (Wire.Obj
              [
                ("id", Wire.Int s.id);
                ("name", Wire.String s.name);
                ("start", Wire.Float s.start);
                ("end", Wire.Float s.stop);
                ("parent", opt s.parent);
                ("req", opt s.req);
              ])
         ^ "\n")
       spans)
