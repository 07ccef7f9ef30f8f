module W = Tracing.Binio.W
module R = Tracing.Binio.R
module Snapshot = Recovery.Snapshot

type hello = {
  tenant : string;
  lifeguard : Snapshot.lifeguard;
  driver : [ `Sequential | `Pooled | `Wavefront ];
  state : [ `Functional | `Flat ];
  relaxed : bool;
  threads : int;
}

type frame =
  | Hello of hello
  | Hello_ok of { resumed_from : int }
  | Data of string
  | Fin
  | Report of string
  | Error of string
  | Status
  | Status_ok of string

let protocol_version = 1
let max_frame = 16 * 1024 * 1024

let driver_tag = function `Sequential -> 0 | `Pooled -> 1 | `Wavefront -> 2

let driver_of_tag = function
  | 0 -> `Sequential
  | 1 -> `Pooled
  | 2 -> `Wavefront
  | t -> raise (R.Corrupt (Printf.sprintf "bad driver tag %d" t))

let state_tag = function `Functional -> 0 | `Flat -> 1

let state_of_tag = function
  | 0 -> `Functional
  | 1 -> `Flat
  | t -> raise (R.Corrupt (Printf.sprintf "bad state tag %d" t))

let body_of = function
  | Hello h ->
    let w = W.create () in
    W.u8 w 1;
    W.u8 w protocol_version;
    W.string w h.tenant;
    W.u8 w (Snapshot.lifeguard_to_byte h.lifeguard);
    W.u8 w (driver_tag h.driver);
    W.u8 w (state_tag h.state);
    W.bool w h.relaxed;
    W.varint w h.threads;
    W.contents w
  | Hello_ok { resumed_from } ->
    let w = W.create () in
    W.u8 w 2;
    W.varint w resumed_from;
    W.contents w
  | Data payload ->
    let w = W.create () in
    W.u8 w 3;
    W.string w payload;
    W.contents w
  | Fin -> "\x04"
  | Report json ->
    let w = W.create () in
    W.u8 w 5;
    W.string w json;
    W.contents w
  | Error msg ->
    let w = W.create () in
    W.u8 w 6;
    W.string w msg;
    W.contents w
  | Status -> "\x07"
  | Status_ok json ->
    let w = W.create () in
    W.u8 w 8;
    W.string w json;
    W.contents w

let encode frame =
  let body = body_of frame in
  let n = String.length body in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string body 0 b 4 n;
  Bytes.unsafe_to_string b

let decode_body body =
  match
    let r = R.of_string body in
    let frame =
      match R.u8 r with
      | 1 ->
        let version = R.u8 r in
        if version <> protocol_version then
          raise
            (R.Corrupt
               (Printf.sprintf "unsupported protocol version %d (expected %d)"
                  version protocol_version));
        let tenant = R.string r in
        let lifeguard = Snapshot.lifeguard_of_byte (R.u8 r) in
        let driver = driver_of_tag (R.u8 r) in
        let state = state_of_tag (R.u8 r) in
        let relaxed = R.bool r in
        let threads = R.varint r in
        Hello { tenant; lifeguard; driver; state; relaxed; threads }
      | 2 -> Hello_ok { resumed_from = R.varint r }
      | 3 -> Data (R.string r)
      | 4 -> Fin
      | 5 -> Report (R.string r)
      | 6 -> Error (R.string r)
      | 7 -> Status
      | 8 -> Status_ok (R.string r)
      | t -> raise (R.Corrupt (Printf.sprintf "unknown frame tag %d" t))
    in
    R.expect_end r;
    frame
  with
  | frame -> Ok frame
  | exception R.Corrupt m -> Result.Error ("bad frame: " ^ m)

let pp ppf = function
  | Hello h ->
    Format.fprintf ppf "HELLO(%s, %s, threads=%d)" h.tenant
      (Snapshot.lifeguard_to_string h.lifeguard)
      h.threads
  | Hello_ok { resumed_from } -> Format.fprintf ppf "HELLO_OK(%d)" resumed_from
  | Data s -> Format.fprintf ppf "DATA(%d bytes)" (String.length s)
  | Fin -> Format.pp_print_string ppf "FIN"
  | Report s -> Format.fprintf ppf "REPORT(%d bytes)" (String.length s)
  | Error m -> Format.fprintf ppf "ERROR(%s)" m
  | Status -> Format.pp_print_string ppf "STATUS"
  | Status_ok s -> Format.fprintf ppf "STATUS_OK(%d bytes)" (String.length s)

module Reader = struct
  type t = {
    buf : Buffer.t;
    mutable consumed : int;  (* bytes of [buf] already handed out *)
    mutable broken : string option;
  }

  let create () = { buf = Buffer.create 4096; consumed = 0; broken = None }

  let feed t s ~pos ~len =
    if t.broken = None then Buffer.add_substring t.buf s pos len

  let buffered t = Buffer.length t.buf - t.consumed

  (* Drop the consumed prefix once it dominates the buffer, so a
     long-lived connection doesn't grow its buffer with the whole
     history of the stream. *)
  let compact t =
    if t.consumed > 64 * 1024 && t.consumed * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.consumed (buffered t) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.consumed <- 0
    end

  let next t =
    match t.broken with
    | Some m -> Result.Error m
    | None ->
      if buffered t < 4 then Ok None
      else begin
        let at k = Char.code (Buffer.nth t.buf (t.consumed + k)) in
        let n = (at 0 lsl 24) lor (at 1 lsl 16) lor (at 2 lsl 8) lor at 3 in
        if n > max_frame then begin
          let m =
            Printf.sprintf "oversized frame: %d bytes (limit %d)" n max_frame
          in
          t.broken <- Some m;
          Result.Error m
        end
        else if buffered t < 4 + n then Ok None
        else begin
          let body = Buffer.sub t.buf (t.consumed + 4) n in
          t.consumed <- t.consumed + 4 + n;
          compact t;
          match decode_body body with
          | Ok frame -> Ok (Some frame)
          | Result.Error m ->
            t.broken <- Some m;
            Result.Error m
        end
      end
end
