//! Hardware CRC32C: the SSE4.2 `crc32` instruction, picked at run time.
//!
//! SSE4.2's `crc32` computes exactly the Castagnoli polynomial this crate
//! implements in software, on the same reflected running register (the
//! checksum before its final inversion), so the two paths are
//! bit-identical and may be mixed within one stream. One instruction
//! folds eight bytes: the 8-byte words go through `_mm_crc32_u64` and
//! the tail through `_mm_crc32_u8`.
//!
//! This is the **only** module in the crate allowed to contain `unsafe`
//! (the `cargo xtask analyze` hygiene fence enforces it), and it keeps
//! that to one call: the kernel is a safe `#[target_feature]` function,
//! and [`try_update`] calls it only after the CPU reported SSE4.2.

#![allow(unsafe_code)]

use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

/// Fold `bytes` into the running CRC32C `state` with the hardware
/// kernel, or return `None` when this CPU lacks SSE4.2 and the caller
/// must use the portable path.
pub(crate) fn try_update(state: u32, bytes: &[u8]) -> Option<u32> {
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update` only requires the `sse4.2` target feature,
        // and the runtime check on the line above just confirmed that
        // this CPU supports it.
        Some(unsafe { update(state, bytes) })
    } else {
        None
    }
}

#[target_feature(enable = "sse4.2")]
fn update(state: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    let mut crc = u64::from(state);
    for word in &mut words {
        // chunks_exact(8) guarantees the slice converts.
        let word = u64::from_le_bytes(match word.try_into() {
            Ok(w) => w,
            Err(_) => unreachable!(),
        });
        crc = _mm_crc32_u64(crc, word);
    }
    // The instruction zero-extends its 32-bit result into the register.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}
