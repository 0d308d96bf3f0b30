(* Seeded inputs: the serve-mix request streams, the records that
   pre-seed the daemon's store, and the traced run's table sample.
   Everything here is a pure function of the seed, so the same seed
   gives byte-identical inputs. *)

type kind =
  | Hit of int  (** repeat analyze of hot spec [i] — a store hit *)
  | Miss of int  (** first-sight analyze of spec [i] — an engine run *)
  | Metrics

type params = {
  hot : int;  (** specs warmed before timing; the repeat working set *)
  conns : int;
  miss_share : float;
  metrics_share : float;
  cap : int;  (** analyze cap of every request *)
}

(* A growable, seeded list of analyze specs drawn from [space], each
   from a different isomorphism class, so that no spec can be answered
   from another's store record, and each [min_level]-discerning, so
   that deciding it sweeps the [min_level + 1]-process candidates. *)
type specs = {
  space : Synth.space;
  min_level : int;
  canon : Sym.t;
  draw : Random.State.t;
  seen : (string, unit) Hashtbl.t;
  mutable items : string array;
  mutable len : int;
}

let specs ~seed ~min_level space =
  {
    space;
    min_level;
    canon =
      Sym.make ~values:space.Synth.num_values ~ops:space.Synth.num_rws
        ~responses:space.Synth.num_responses;
    draw = Random.State.make [| 0x5eed; seed |];
    seen = Hashtbl.create 1024;
    items = [||];
    len = 0;
  }

let rec spec t i =
  if i < t.len then t.items.(i)
  else begin
    let g = Synth.random_genome t.draw t.space in
    let key = Sym.digest t.canon (Synth.table g) in
    let ty = Synth.to_objtype g in
    if (not (Hashtbl.mem t.seen key))
       && Decide.search Decide.Discerning ty ~n:t.min_level <> None
    then begin
      Hashtbl.replace t.seen key ();
      if t.len = Array.length t.items then begin
        let bigger = Array.make (max 64 (2 * t.len)) "" in
        Array.blit t.items 0 bigger 0 t.len;
        t.items <- bigger
      end;
      t.items.(t.len) <- Objtype.to_spec_string ty;
      t.len <- t.len + 1
    end;
    spec t i
  end

(* One connection's request stream.  Misses of connection [c] take the
   spec indices [hot + conns * k + c], so the connections never race
   for the same first sight. *)
type stream = { p : params; conn : int; rng : Random.State.t; mutable misses : int }

let stream ~seed ~conn p = { p; conn; rng = Random.State.make [| 0x3a1c; seed; conn |]; misses = 0 }

let next s =
  let x = Random.State.float s.rng 1. in
  if x < s.p.metrics_share then Metrics
  else if x < s.p.metrics_share +. s.p.miss_share then begin
    let i = s.p.hot + (s.p.conns * s.misses) + s.conn in
    s.misses <- s.misses + 1;
    Miss i
  end
  else Hit (Random.State.int s.rng s.p.hot)

let config p = Api.Config.v ~cap:p.cap ()

let request specs p = function
  | Hit i | Miss i -> Api.Request.Analyze { spec = spec specs i; config = config p }
  | Metrics -> Api.Request.Metrics

(* The wire bytes of a connection's first [count] requests, one per
   line — what the tests compare across seeds. *)
let render ~seed ~conn ~count ~min_level space p =
  let specs = specs ~seed ~min_level space in
  let s = stream ~seed ~conn p in
  String.concat "\n"
    (List.init count (fun _ -> Api.Request.to_string (request specs p (next s))))

(* Store records under keys no query digest can take ("pb" is not hex),
   with payloads of [bytes] printable characters. *)
let seed_records ~seed ~count ~bytes =
  let rng = Random.State.make [| 0x570e; seed |] in
  List.init count (fun i ->
      let key = Printf.sprintf "pb%08d%08x" i (Random.State.bits rng) in
      (key, String.init bytes (fun _ -> Char.chr (0x61 + Random.State.int rng 26))))

(* [count] distinct ranks of [0 .. size - 1], increasing. *)
let sample ~seed ~size ~count =
  let count = min count size in
  let rng = Random.State.make [| 0x5a3b; seed |] in
  let picked = Hashtbl.create count in
  while Hashtbl.length picked < count do
    Hashtbl.replace picked (Random.State.int rng size) ()
  done;
  let a = Array.of_seq (Hashtbl.to_seq_keys picked) in
  Array.sort compare a;
  a
