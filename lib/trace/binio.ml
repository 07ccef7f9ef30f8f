(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.  Kept in pure
   int arithmetic: the 32-bit values fit easily in OCaml's 63-bit ints. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Binio.crc32_sub";
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
         lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let contents = Buffer.contents

  let u8 b n =
    if n < 0 || n > 255 then invalid_arg "Binio.W.u8: out of range";
    Buffer.add_char b (Char.chr n)

  let varint b n =
    if n < 0 then invalid_arg "Binio.W.varint: negative";
    let n = ref n in
    let continue = ref true in
    while !continue do
      let byte = !n land 0x7f in
      n := !n lsr 7;
      if !n = 0 then (
        Buffer.add_char b (Char.chr byte);
        continue := false)
      else Buffer.add_char b (Char.chr (byte lor 0x80))
    done

  let bool b v = u8 b (if v then 1 else 0)

  (* Zigzag: small magnitudes of either sign stay short. *)
  let sint b n = varint b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let string b s =
    varint b (String.length s);
    Buffer.add_string b s

  let pair b fa fb (x, y) =
    fa b x;
    fb b y

  let list b f xs =
    varint b (List.length xs);
    List.iter (f b) xs

  let array b f xs =
    varint b (Array.length xs);
    Array.iter (f b) xs

  let option b f = function
    | None -> u8 b 0
    | Some x ->
      u8 b 1;
      f b x
end

module R = struct
  type t = { s : string; mutable pos : int; limit : int }

  exception Corrupt of string

  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt
  let of_string s = { s; pos = 0; limit = String.length s }

  (* In-place reader over a window of [s]: no copy, so cursor-style
     decoders can walk a region of a large buffer directly. *)
  let of_substring s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Binio.R.of_substring";
    { s; pos; limit = pos + len }

  let pos r = r.pos
  let remaining r = r.limit - r.pos

  let u8 r =
    if r.pos >= r.limit then corrupt "truncated input";
    let b = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    b

  let varint r =
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !shift > 56 then corrupt "varint too long";
      let b = u8 r in
      acc := !acc lor ((b land 0x7f) lsl !shift);
      if b land 0x80 <> 0 then shift := !shift + 7 else more := false
    done;
    !acc

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | b -> corrupt "bad bool tag %d" b

  let sint r =
    let z = varint r in
    (z lsr 1) lxor (-(z land 1))

  let string r =
    let n = varint r in
    if n > r.limit - r.pos then corrupt "truncated string";
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  let pair r fa fb =
    let a = fa r in
    let b = fb r in
    (a, b)

  let list r f = List.init (varint r) (fun _ -> f r)
  let array r f = Array.init (varint r) (fun _ -> f r)

  let option r f =
    match u8 r with
    | 0 -> None
    | 1 -> Some (f r)
    | b -> corrupt "bad option tag %d" b

  let expect_end r = if r.pos <> r.limit then corrupt "trailing bytes"
end

(* The CRC covers magic + version + payload, so a flipped bit anywhere in
   the envelope (including the header) is detected, not just payload
   corruption. *)
let frame ~magic ~version payload =
  let b = Buffer.create (String.length payload + String.length magic + 5) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr (version land 0xff));
  Buffer.add_string b payload;
  let crc = crc32 (Buffer.contents b) in
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((crc lsr (8 * i)) land 0xff))
  done;
  Buffer.contents b

(* The checks run in place: no copy of the envelope or the payload. *)
let unframe_span ~magic ~version s =
  let mlen = String.length magic in
  let len = String.length s in
  if not (String.starts_with ~prefix:magic s) then Error "bad magic"
  else if len < mlen + 5 then Error "truncated envelope"
  else
    let got_version = Char.code s.[mlen] in
    if got_version <> version then
      Error
        (Printf.sprintf "unsupported format version %d (expected %d)"
           got_version version)
    else
      let stored = ref 0 in
      for i = 3 downto 0 do
        stored := (!stored lsl 8) lor Char.code s.[len - 4 + i]
      done;
      let computed = crc32_sub s ~pos:0 ~len:(len - 4) in
      if !stored <> computed then
        Error
          (Printf.sprintf "CRC mismatch: stored %08x, computed %08x" !stored
             computed)
      else Ok (mlen + 1, len - mlen - 5)

let unframe ~magic ~version s =
  Result.map
    (fun (pos, len) -> String.sub s pos len)
    (unframe_span ~magic ~version s)
