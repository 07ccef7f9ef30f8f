module W = Tracing.Binio.W
module R = Tracing.Binio.R

type lifeguard = Addrcheck | Initcheck | Taintcheck | Racecheck

let lifeguard_to_string = function
  | Addrcheck -> "addrcheck"
  | Initcheck -> "initcheck"
  | Taintcheck -> "taintcheck"
  | Racecheck -> "racecheck"

let all = [ Addrcheck; Initcheck; Taintcheck; Racecheck ]

let lifeguard_to_byte = function
  | Addrcheck -> 0
  | Initcheck -> 1
  | Taintcheck -> 2
  | Racecheck -> 3

let lifeguard_of_byte b =
  match List.find_opt (fun lg -> lifeguard_to_byte lg = b) all with
  | Some lg -> lg
  | None -> raise (R.Corrupt (Printf.sprintf "bad lifeguard tag %d" b))

type meta = { lifeguard : lifeguard; next_epoch : int; threads : int }

let magic = "BFLYCKPT"
(* Bumped whenever an engine payload changes shape. *)
let version = 3

let encode meta payload =
  let w = W.create () in
  W.u8 w (lifeguard_to_byte meta.lifeguard);
  W.varint w meta.next_epoch;
  W.varint w meta.threads;
  W.string w payload;
  Tracing.Binio.frame ~magic ~version (W.contents w)

let decode s =
  match Tracing.Binio.unframe ~magic ~version s with
  | Error _ as e -> e
  | Ok body -> (
    match
      let r = R.of_string body in
      let lifeguard = lifeguard_of_byte (R.u8 r) in
      let next_epoch = R.varint r in
      let threads = R.varint r in
      let payload = R.string r in
      R.expect_end r;
      ({ lifeguard; next_epoch; threads }, payload)
    with
    | result -> Ok result
    | exception R.Corrupt m -> Error ("corrupt checkpoint metadata: " ^ m))

exception Write_error of string

let write_file ~path meta payload =
  let data = encode meta payload in
  let tmp = path ^ ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc data);
    Sys.rename tmp path
  with
  | () -> String.length data
  | exception Sys_error m ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Write_error (Printf.sprintf "cannot write checkpoint %s: %s" path m))

let read_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> decode data
  | exception Sys_error m -> Error (Printf.sprintf "cannot read checkpoint %s: %s" path m)

let valid_tenant t =
  let n = String.length t in
  n >= 1 && n <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       t

let session_path ~dir ~tenant lifeguard =
  if not (valid_tenant tenant) then
    invalid_arg (Printf.sprintf "Snapshot.session_path: invalid tenant %S" tenant);
  Filename.concat dir
    (Printf.sprintf "%s.%s.snap" tenant (lifeguard_to_string lifeguard))
