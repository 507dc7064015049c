//! The wire layer's root-level check, so tier-1 `cargo test -q` sees a
//! broken checksum or frame layout: the frame checksum is IEEE CRC-32,
//! and frames written by an older build still decode and re-encode
//! byte-identically (`fgcs-wire`'s golden-frame suite, included as is).

use fgcs_wire::codec::crc32;

#[path = "../crates/fgcs-wire/tests/golden_frames.rs"]
mod golden_frames;

#[test]
fn crc32_is_the_ieee_polynomial() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xe8b7_be43);
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414f_a339
    );
    assert_eq!(crc32(&[0x00; 32]), 0x190a_55ad);
    assert_eq!(crc32(&[0xff; 32]), 0xff6c_ab0b);
    let ramp: Vec<u8> = (0..32).collect();
    assert_eq!(crc32(&ramp), 0x9126_7e8a);
}
