//! A6 fixture: a Relaxed load feeding control flow, lock-free reads of
//! a lock-mirrored gauge (direct, via a closure, via a helper) and a
//! torn write, all unannotated. Each site must be flagged with its lint.

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
    g.units.load(Ordering::Relaxed)
}

fn spin(g: &Gauges) {
    while !g.shutdown.load(Ordering::Relaxed) {
        step();
    }
}

fn reset(g: &Gauges) {
    g.units.store(0, Ordering::Release);
}

fn scrape(g: &Gauges) -> u64 {
    let relaxed = |gauge: &AtomicU64| gauge.load(Ordering::Relaxed);
    relaxed(&g.units)
}

fn load_relaxed(gauge: &AtomicU64) -> u64 {
    gauge.load(Ordering::Relaxed)
}

fn report(g: &Gauges) -> u64 {
    load_relaxed(&g.units)
}
