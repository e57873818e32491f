//! One violation per clippy lint that a product module denies. The
//! attributes are the ones the product modules carry, and the root
//! `clippy.toml` supplies the `disallowed_methods` list, so a toolchain or
//! configuration change that stops a lint from firing fails CI here.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::cast_possible_truncation))]

/// `disallowed_methods`: a thread outside `gb_common::pool`.
pub fn rogue_spawn() {
    let _ = std::thread::spawn(|| {}).join();
}

/// `unwrap_used`.
pub fn unwraps(v: Option<u8>) -> u8 {
    v.unwrap()
}

/// `expect_used`.
pub fn expects(v: Option<u8>) -> u8 {
    v.expect("a value")
}

/// `panic`.
pub fn panics() {
    panic!("on a request path");
}

/// `unreachable`.
pub fn unreachables() {
    unreachable!("on a request path");
}

/// `indexing_slicing`.
pub fn indexes(bytes: &[u8]) -> &[u8] {
    &bytes[1..]
}

/// `cast_possible_truncation`.
pub fn narrows(len: usize) -> u32 {
    len as u32
}
