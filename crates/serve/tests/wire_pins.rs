//! Byte pins of every canonically encoded wire type: the hex encoding of
//! one value of each (each core kind, lone and pair-signed members in an
//! envelope with a certificate, a slot message, a vector with nulls, both
//! handshakes, every request and reply, a status with two convictions),
//! what every proper prefix of each decodes to, and what hostile inputs
//! decode to. A mismatch prints every line.

mod wire_table;

use wire_table::{hex, hostile, pins};

fn lines() -> String {
    let mut out = String::new();
    for p in pins() {
        out.push_str(&format!("{} {}\n", p.name, hex(&p.bytes)));
        out.push_str(&format!(
            "{} roundtrips={} cut: {}\n",
            p.name, p.roundtrips, p.truncations
        ));
    }
    for (name, got) in hostile() {
        out.push_str(&format!("{name} {got}\n"));
    }
    out
}

const PINNED: &str = "\
core/init 0000000101000000000000002a
core/init roundtrips=true cut: UnexpectedEnd*13
core/current 00000001020000000000000002000000040100000000000000070001ffffffffffffffff00
core/current roundtrips=true cut: UnexpectedEnd*17 BadLength(4)*4 UnexpectedEnd*16
core/next 00000001030000000000000003
core/next roundtrips=true cut: UnexpectedEnd*13
core/decide 00000001040000000000000004000000040100000000000000070001ffffffffffffffff00
core/decide roundtrips=true cut: UnexpectedEnd*17 BadLength(4)*4 UnexpectedEnd*16
core/estimate 00000001050000000000000005000000040100000000000000070001ffffffffffffffff000000000000000001
core/estimate roundtrips=true cut: UnexpectedEnd*17 BadLength(4)*4 UnexpectedEnd*24
core/propose 00000001060000000000000006000000040100000000000000070001ffffffffffffffff00
core/propose roundtrips=true cut: UnexpectedEnd*17 BadLength(4)*4 UnexpectedEnd*16
core/ack 00000001070000000000000007000000040100000000000000070001ffffffffffffffff00
core/ack roundtrips=true cut: UnexpectedEnd*17 BadLength(4)*4 UnexpectedEnd*16
core/nack 00000001080000000000000008
core/nack roundtrips=true cut: UnexpectedEnd*13
core/checkpoint 000000010900000000000000030000002072ef2d3b468fc2b0747986897ecf8122437ef3fbb2b949c3a948f592ad3572cb
core/checkpoint roundtrips=true cut: UnexpectedEnd*17 BadLength(32)*32
vector 000000040100000000000000070001ffffffffffffffff00
vector roundtrips=true cut: UnexpectedEnd*4 BadLength(4)*4 UnexpectedEnd*16
vector/empty 00000000
vector/empty roundtrips=true cut: UnexpectedEnd*4
envelope 00000002030000000000000001000000084301a329595123b10000000300000000010000000000000001000000086d3c7761bea3122effffffff2f2dfe62e001e38a8362d3ef682b4c06ee5d2f907ef82c2af76fb4e7b384238c00000001040000000000000001000000040100000000000000070001ffffffffffffffff000000000832eaeb9899ef1b30ffffffffae223885fb06983f62bb05b4b8de284c0b595a819ab208d5f6e400a6befd3147000000010100000000000000090000000832eaeb9899ef1b30
envelope roundtrips=true cut: UnexpectedEnd*17 BadLength(8)*8 UnexpectedEnd*4 BadLength(3)*3 UnexpectedEnd*14 BadLength(8)*8 UnexpectedEnd*53 BadLength(4)*4 UnexpectedEnd*20 BadLength(8)*8 UnexpectedEnd*53 BadLength(8)*8
envelope/pair-head ffffffffb4e11264ea0ec303d799597602c189e513b68a5e0480ceb572b35efe2e933072000000030300000000000000020000000815b12fa351b9f4ad00000000
envelope/pair-head roundtrips=true cut: UnexpectedEnd*53 BadLength(8)*8 UnexpectedEnd*4
slot 000000000000000b00000002030000000000000001000000084301a329595123b10000000300000000010000000000000001000000086d3c7761bea3122effffffff2f2dfe62e001e38a8362d3ef682b4c06ee5d2f907ef82c2af76fb4e7b384238c00000001040000000000000001000000040100000000000000070001ffffffffffffffff000000000832eaeb9899ef1b30ffffffffae223885fb06983f62bb05b4b8de284c0b595a819ab208d5f6e400a6befd3147000000010100000000000000090000000832eaeb9899ef1b30
slot roundtrips=true cut: UnexpectedEnd*25 BadLength(8)*8 UnexpectedEnd*4 BadLength(3)*3 UnexpectedEnd*14 BadLength(8)*8 UnexpectedEnd*53 BadLength(4)*4 UnexpectedEnd*20 BadLength(8)*8 UnexpectedEnd*53 BadLength(8)*8
hello/peer 46544d4e000000010100000003000000000000abcd
hello/peer roundtrips=true cut: UnexpectedEnd*21
hello/client 46544d4e0000000102000000000000beef
hello/client roundtrips=true cut: UnexpectedEnd*17
request/submit 01000000000000004d
request/submit roundtrips=true cut: UnexpectedEnd*9
request/status 02
request/status roundtrips=true cut: UnexpectedEnd*1
request/shutdown 03
request/shutdown roundtrips=true cut: UnexpectedEnd*1
reply/submitted 010000000000000003
reply/submitted roundtrips=true cut: UnexpectedEnd*9
reply/status 020000000200000000000004d20000000000000011010000000004abababab00000002000000127033206261642d636572746966696361746500000005703120c3a900000000000000050000000000000064000000000000005a0000000000000fa00000000000000ed800000000000000100000000000000028000000000000001e000000000000000500000003cdcdcd
reply/status roundtrips=true cut: UnexpectedEnd*27 BadLength(4)*4 UnexpectedEnd*4 BadLength(2)*2 UnexpectedEnd*2 BadLength(18)*18 UnexpectedEnd*4 BadLength(5)*5 UnexpectedEnd*76 BadLength(3)*3
reply/shutting-down 03
reply/shutting-down roundtrips=true cut: UnexpectedEnd*1
reply/bad-request 04000000056e6f20c3bc
reply/bad-request roundtrips=true cut: UnexpectedEnd*5 BadLength(5)*5
status 0000000200000000000004d20000000000000011010000000004abababab00000002000000127033206261642d636572746966696361746500000005703120c3a900000000000000050000000000000064000000000000005a0000000000000fa00000000000000ed800000000000000100000000000000028000000000000001e000000000000000500000003cdcdcd
status roundtrips=true cut: UnexpectedEnd*26 BadLength(4)*4 UnexpectedEnd*4 BadLength(2)*2 UnexpectedEnd*2 BadLength(18)*18 UnexpectedEnd*4 BadLength(5)*5 UnexpectedEnd*76 BadLength(3)*3
core/tag-0 Err(BadTag(0))
core/tag-10 Err(BadTag(10))
core/no-tag Err(UnexpectedEnd)
vector/option-tag-2 Err(BadTag(2))
vector/count-over-rest Err(BadLength(3))
vector/count-max Err(BadLength(4294967295))
vector/count-fits Ok([· ·])
envelope/cert-count-over-rest Err(BadLength(9))
envelope/cert-count-max Err(BadLength(4294967295))
envelope/duplicate-members Ok(cert=1)
status/halted-2 Err(BadTag(2))
status/convicted-count-over-rest Err(BadLength(4294967295))
status/convicted-invalid-utf8 Err(BadTag(0))
status/log-digest-over-rest Err(BadLength(16777216))
reply/tag-0 Err(BadTag(0))
reply/tag-5 Err(BadTag(5))
reply/bad-request-invalid-utf8 Err(BadTag(0))
reply/bad-request-over-rest Err(BadLength(9))
request/tag-0 Err(BadTag(0))
request/tag-4 Err(BadTag(4))
request/trailing Err(TrailingBytes(1))
hello/wrong-magic Err(BadLength(1196707150))
hello/wrong-version Err(BadLength(2))
hello/tag-3 Err(BadTag(3))
";

#[test]
fn wire_bytes_and_decode_verdicts_are_pinned() {
    let got = lines();
    assert!(got == PINNED, "wire pins moved; every line:\n{got}");
}
