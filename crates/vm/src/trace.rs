//! Memory-trace sinks.
//!
//! The VM streams every memory transaction a kernel issues — it never
//! materialises a trace in memory, because a 512³ sweep of a 125-point
//! stencil produces hundreds of millions of transactions. Consumers
//! implement [`TraceSink`]; the GPU simulator's per-SM L1 models are the
//! production sinks, and [`CountingSink`]/[`RecordingSink`] serve tests
//! and quick accounting.

/// Receives the memory transactions of a running kernel, in issue order.
pub trait TraceSink {
    /// A read of `bytes` bytes starting at absolute address `addr`.
    fn load(&mut self, addr: u64, bytes: u32);
    /// A write of `bytes` bytes starting at absolute address `addr`.
    fn store(&mut self, addr: u64, bytes: u32);
}

/// Tallies transaction counts and byte totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of load transactions.
    pub loads: u64,
    /// Bytes loaded.
    pub load_bytes: u64,
    /// Number of store transactions.
    pub stores: u64,
    /// Bytes stored.
    pub store_bytes: u64,
}

impl TraceSink for CountingSink {
    fn load(&mut self, _addr: u64, bytes: u32) {
        self.loads += 1;
        self.load_bytes += bytes as u64;
    }

    fn store(&mut self, _addr: u64, bytes: u32) {
        self.stores += 1;
        self.store_bytes += bytes as u64;
    }
}

/// One recorded transaction: `(is_store, addr, bytes)`.
pub type Event = (bool, u64, u32);

/// Records every transaction (tests only — unbounded memory).
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The recorded events in issue order.
    pub events: Vec<Event>,
}

impl TraceSink for RecordingSink {
    fn load(&mut self, addr: u64, bytes: u32) {
        self.events.push((false, addr, bytes));
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        self.events.push((true, addr, bytes));
    }
}

/// Discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn load(&mut self, _addr: u64, _bytes: u32) {}
    fn store(&mut self, _addr: u64, _bytes: u32) {}
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn load(&mut self, addr: u64, bytes: u32) {
        (**self).load(addr, bytes)
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        (**self).store(addr, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_tallies() {
        let mut s = CountingSink::default();
        s.load(0, 256);
        s.load(256, 256);
        s.store(4096, 128);
        assert_eq!(s.loads, 2);
        assert_eq!(s.load_bytes, 512);
        assert_eq!(s.stores, 1);
        assert_eq!(s.store_bytes, 128);
    }

    #[test]
    fn recording_sink_preserves_order() {
        let mut s = RecordingSink::default();
        s.load(8, 32);
        s.store(16, 64);
        assert_eq!(s.events, vec![(false, 8, 32), (true, 16, 64)]);
    }

    #[test]
    fn sink_by_mut_ref() {
        fn feed<S: TraceSink>(mut s: S) {
            s.load(0, 8);
        }
        let mut c = CountingSink::default();
        feed(&mut c);
        assert_eq!(c.loads, 1);
    }
}
