//! Allocation budgets of the per-probe name paths.
//!
//! Every probe builds, clones, decodes and compares a unique query name,
//! so these counts multiply by the number of probes in a survey. A
//! counting global allocator with a per-thread counter (tests run on
//! parallel threads) pins the budgets: building a probe name, cloning or
//! decoding a name each allocate once; comparing names, testing the
//! subdomain relation and writing the canonical form allocate nothing.

use bcd_core::{QnameCodec, SuffixKind};
use bcd_dnswire::{Name, WireReader, WireWriter, MAX_NAME_WIRE_LEN};
use bcd_netsim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::IpAddr;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees for `GlobalAlloc` carry over; the counter is a
// const-initialised thread-local `Cell` that neither allocates nor has a
// destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations it made on this
/// thread (the result is dropped by the caller, outside the count).
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = black_box(f());
    (out, ALLOCS.with(Cell::get) - before)
}

fn codec() -> QnameCodec {
    QnameCodec::new(&"dns-lab.org".parse().unwrap(), "x7")
}

fn probe_name(src: &str, dst: &str) -> Name {
    let src: IpAddr = src.parse().unwrap();
    let dst: IpAddr = dst.parse().unwrap();
    codec().encode(
        SimTime::from_nanos(123_456_789),
        src,
        dst,
        64_500,
        SuffixKind::Main,
    )
}

#[test]
fn qname_encode_allocates_once() {
    let c = codec();
    let v4: [IpAddr; 2] = ["10.1.2.3".parse().unwrap(), "203.0.113.77".parse().unwrap()];
    let v6: [IpAddr; 2] = [
        "2001:db8::1".parse().unwrap(),
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap(),
    ];
    for [src, dst] in [v4, v6] {
        for suffix in [
            SuffixKind::Main,
            SuffixKind::F4,
            SuffixKind::F6,
            SuffixKind::Tcp,
        ] {
            let ts = SimTime::from_nanos(u64::MAX);
            let (name, n) = allocs(|| c.encode(ts, src, dst, u32::MAX, suffix));
            assert_eq!(n, 1, "encode {src} -> {dst} under {suffix:?}");
            assert_eq!(name.label_count(), 5 + c.suffix_apex(suffix).label_count());
        }
    }
}

#[test]
fn name_clone_allocates_once() {
    let name = probe_name("10.1.2.3", "203.0.113.77");
    let (copy, n) = allocs(|| name.clone());
    assert_eq!(n, 1);
    assert_eq!(copy, name);
    let (_, n) = allocs(|| Name::root().clone());
    assert_eq!(n, 0, "the root owns no buffer");
}

#[test]
fn name_decode_allocates_once() {
    let name = probe_name("2001:db8::1", "2600:1:2:3::42");
    let mut w = WireWriter::new();
    name.encode(&mut w);
    // A second copy compresses to a pointer; decoding follows it.
    name.encode(&mut w);
    let buf = w.into_bytes();
    let mut r = WireReader::new(&buf);
    for _ in 0..2 {
        let (back, n) = allocs(|| Name::decode(&mut r).unwrap());
        assert_eq!(n, 1);
        assert_eq!(back, name);
    }
}

#[test]
fn comparisons_allocate_nothing() {
    let a = probe_name("10.1.2.3", "203.0.113.77");
    let b = probe_name("10.1.2.3", "203.0.113.78");
    let apex: Name = "DNS-LAB.org".parse().unwrap();
    let (ord, n) = allocs(|| a.cmp(&b));
    assert_eq!(n, 0, "cmp");
    assert_eq!(ord, a.canonical_bytes().cmp(&b.canonical_bytes()));
    let (eq, n) = allocs(|| a == b);
    assert_eq!((eq, n), (false, 0), "eq");
    let (sub, n) = allocs(|| a.is_subdomain_of(&apex));
    assert_eq!((sub, n), (true, 0), "is_subdomain_of");
    let mut buf = [0u8; MAX_NAME_WIRE_LEN];
    let (len, n) = allocs(|| a.canonical_into(&mut buf));
    assert_eq!(n, 0, "canonical_into");
    assert_eq!(&buf[..len], a.canonical_bytes().as_slice());
}
