type t = {
  fifo : char Eof_util.Ring.t;
}

let create ?(fifo_bytes = 8192) () =
  { fifo = Eof_util.Ring.create fifo_bytes }

let write_char t c = Eof_util.Ring.push t.fifo c

let write_string t s = String.iter (write_char t) s

let drain t =
  let chars = Eof_util.Ring.drain t.fifo in
  let buf = Buffer.create (List.length chars) in
  List.iter (Buffer.add_char buf) chars;
  Buffer.contents buf

let reset t =
  Eof_util.Ring.clear t.fifo
