//! Allocation-count gate for the exchange path.
//!
//! A load client's wire hop goes through `Fetcher::exchange_with`, which
//! reports status, latency and redirects without building a `Response`.
//! Once the session has seen the host (its per-host ordinal slot exists)
//! and no fault fires, a GET or HEAD that answers on its first hop must
//! make **zero** heap allocations — on a web that was only ever read
//! (the lock-free path) and on one that was written (the locked path).
//! A counting global allocator pins it, and pins that the
//! response-building `get_with` still allocates, so the counter is known
//! to be live.
//!
//! Everything lives in one `#[test]` so the process-global counter is not
//! polluted by a sibling test thread.

use rws_net::{
    FaultInjector, FaultPlan, FaultScale, FetchSession, Fetcher, Method, RetryPolicy, SimulatedWeb,
    SiteHost, StatusCode, Url,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting every allocation and reallocation.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let value = f();
    (ALLOCS.load(Ordering::Relaxed) - before, value)
}

#[test]
fn warm_unfaulted_exchange_makes_no_heap_allocation() {
    let mut written = SimulatedWeb::new();
    let mut host = SiteHost::new("warm.example").unwrap();
    host.add_page("/", "<html><body>warm home</body></html>")
        .add_json("/data.json", r#"{"ok": true}"#)
        .add_header("/", "X-Robots-Tag", "noindex");
    written.register(host);
    let unwritten = written.freeze().to_web();

    let urls = [
        Url::parse("https://warm.example/").unwrap(),
        Url::parse("https://warm.example/data.json").unwrap(),
        Url::parse("https://warm.example/missing").unwrap(),
    ];
    for (label, web) in [("unwritten", unwritten), ("written", written)] {
        for injector in [None, Some(FaultPlan::new(7, FaultScale::off()))] {
            let mut fetcher = Fetcher::new(web.clone()).with_retry(RetryPolicy::standard());
            fetcher.set_fault_injector(injector.map(FaultInjector::new));
            let mut session = FetchSession::new(1, "warm");
            let exchange_all = |session: &mut FetchSession| {
                for method in [Method::Get, Method::Head] {
                    for url in &urls {
                        let outcome = fetcher.exchange_with(method, url, session);
                        let exchange = outcome.result.expect("served");
                        assert!(exchange.landing.is_none());
                        black_box(exchange);
                    }
                }
            };
            // Warm-up: the session's ordinal slot for the host exists
            // from here on.
            exchange_all(&mut session);

            let (allocs, ()) = allocs_during(|| exchange_all(&mut session));
            assert_eq!(
                allocs,
                0,
                "{label} web, injector {}: a warm exchange allocated",
                injector.is_some()
            );

            // The response-building path over the same hop allocates (URL
            // clone, header map), which is what the exchange path saves.
            let (allocs, response) = allocs_during(|| fetcher.get_with(&urls[0], &mut session));
            assert_eq!(response.result.unwrap().status, StatusCode::OK);
            assert!(allocs > 0, "the counter saw no allocation at all");
        }
    }
}
