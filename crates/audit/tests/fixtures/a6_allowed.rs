//! A6 fixture: the same shapes as `a6_bad.rs` but every site carries a
//! reasoned `audit:allow` documenting its staleness/tearing contract.
//! Must audit clean (and none of the allows is stale).

struct Gauges {
    inner: Mutex<u64>,
    units: AtomicU64,
    shutdown: AtomicBool,
}

fn update(g: &Gauges) {
    let guard = g.inner.lock();
    g.units.store(guard.count(), Ordering::Relaxed);
}

fn health(g: &Gauges) -> u64 {
    // audit:allow(a6-relaxed-mirror) reason="advisory gauge: health reads may lag the ingest lock by design"
    g.units.load(Ordering::Relaxed)
}

fn spin(g: &Gauges) {
    // audit:allow(a6-relaxed-control) reason="shutdown flag: one extra loop iteration after the flip is harmless"
    while !g.shutdown.load(Ordering::Relaxed) {
        step();
    }
}

fn reset(g: &Gauges) {
    // audit:allow(a6-torn-write) reason="reset runs single-threaded before any worker starts"
    g.units.store(0, Ordering::Release);
}

fn scrape(g: &Gauges) -> u64 {
    let relaxed = |gauge: &AtomicU64| gauge.load(Ordering::Relaxed);
    // audit:allow(a6-relaxed-mirror) reason="advisory gauge read through a closure: a scrape may lag the ingest lock by design"
    relaxed(&g.units)
}

fn load_relaxed(gauge: &AtomicU64) -> u64 {
    gauge.load(Ordering::Relaxed)
}

fn report(g: &Gauges) -> u64 {
    // audit:allow(a6-relaxed-mirror) reason="advisory gauge read through a helper: a report may lag the ingest lock by design"
    load_relaxed(&g.units)
}
