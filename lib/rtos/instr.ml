type t = { sancov : Eof_cov.Sancov.t; block : Eof_cov.Sitemap.block }

let of_sancov ~sancov ~block = { sancov; block }

let check t i =
  let count = t.block.Eof_cov.Sitemap.count in
  if i < 0 || i >= count then
    invalid_arg (Printf.sprintf "Instr: site index %d out of range (count %d)" i count)

let site_addr t i =
  check t i;
  Eof_cov.Sitemap.site_addr t.block i

let cmp t i a b =
  check t i;
  Eof_cov.Sancov.cmp t.sancov ~site:(Eof_cov.Sitemap.site_addr t.block i) a b

let edge t i =
  check t i;
  Eof_cov.Sancov.edge t.sancov ~site:(Eof_cov.Sitemap.site_addr t.block i)

let cmp_i t i a b = cmp t i (Int64.of_int a) (Int64.of_int b)
