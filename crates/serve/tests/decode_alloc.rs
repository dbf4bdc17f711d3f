//! Wire decoders allocate no more than their input justifies.
//!
//! A counting global allocator records the largest single allocation made
//! on the test's own thread while it decodes forged payloads whose count
//! fields promise far more elements than the bytes after them can hold,
//! and while it reads a frame whose header promises far more payload than
//! arrives.
//! The allocator sits in a test binary of its own, so it measures no other
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use lt_serve::protocol::{read_frame, MAX_FRAME_BYTES};
use lt_serve::Response;

/// Largest single allocation a decode of a few forged bytes may make.
const MAX_ALLOC: usize = 64 * 1024;

thread_local! {
    /// Largest allocation seen on this thread while counting; `None` when
    /// not counting.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| {
        if let Some(max) = largest.get() {
            largest.set(Some(max.max(size)));
        }
    });
}

struct Counting;

// SAFETY: every call goes unchanged to `System`, which meets the
// `GlobalAlloc` contract; `note` neither allocates nor unwinds (the
// thread-local is a `const`-initialised `Cell` with no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns the largest single allocation it made.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|largest| largest.set(Some(0)));
    f();
    LARGEST.with(|largest| largest.take()).unwrap_or(0)
}

#[test]
fn forged_counts_do_not_size_allocations() {
    let seen = largest_allocation(|| {
        std::hint::black_box(Vec::<u8>::with_capacity(1 << 20));
    });
    assert!(seen >= 1 << 20, "the counter missed a 1 MiB allocation: {seen} bytes");

    // Each count is the largest the decoder accepts (2^32 - 1 where it has
    // no cap), and no element bytes follow it.
    let count = |n: u32| n.to_le_bytes();
    let one = count(1);
    let payloads: Vec<(&str, Vec<u8>)> = vec![
        ("search hits", [&[0x81][..], &count(u32::MAX)].concat()),
        // Metrics version 1.
        ("metrics entries", [&[0x87][..], &one, &count(u32::MAX)].concat()),
        // One histogram entry: empty name, kind tag, count, sum and max.
        (
            "histogram buckets",
            [&[0x87][..], &one, &one, &[0, 0, 0, 0, 2], &[0; 24], &count(1024)].concat(),
        ),
        ("traces", [&[0x88][..], &count(256)].concat()),
        // One trace: id, start, total and the tail-quartile pair.
        ("trace spans", [&[0x88][..], &one, &[0; 26], &count(4096)].concat()),
        // Stats fields up to the shard list: 1 u64, 3 u32 and 11 u64.
        ("stats shard items", [&[0x84][..], &[0; 8 + 3 * 4 + 11 * 8], &count(1 << 16)].concat()),
    ];
    for (what, payload) in &payloads {
        let mut decoded = None;
        let seen = largest_allocation(|| decoded = Some(Response::decode(payload)));
        assert!(decoded.expect("decoded").is_err(), "{what}: forged payload decoded");
        let len = payload.len();
        assert!(seen <= MAX_ALLOC, "{what}: one allocation of {seen} bytes from {len} input bytes");
    }
}

#[test]
fn a_frame_header_does_not_size_the_payload_buffer() {
    // A header promising the largest payload the reader accepts (64 MiB),
    // 16 payload bytes, then EOF.
    let header = u32::try_from(MAX_FRAME_BYTES).expect("the cap fits the u32 length field");
    let stream = [&header.to_le_bytes()[..], &[7; 16]].concat();
    let mut read = None;
    let seen = largest_allocation(|| read = Some(read_frame(&mut &stream[..])));
    let err = read.expect("read").expect_err("a truncated frame read");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    let len = stream.len();
    assert!(seen <= MAX_ALLOC, "one allocation of {seen} bytes from {len} input bytes");
}
