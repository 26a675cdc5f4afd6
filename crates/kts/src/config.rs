//! Tunables for the timestamp service.

/// Configuration of the Master-key role.
#[derive(Clone, Debug)]
pub struct KtsConfig {
    /// Verify `last_ts` against the log before first serving a key this
    /// node has no state for (guards against double failures; see
    /// ARCHITECTURE.md, "The recovery path").
    pub probe_unknown_keys: bool,
    /// Verify `last_ts` against the log when promoting a Master-Succ backup
    /// (the backup may lag an in-flight grant).
    pub probe_on_promote: bool,
    /// Bounded per-key validation queue; requests beyond this are shed with
    /// `Overloaded`.
    pub max_queue_per_key: usize,
    /// Grant fencing: before serving a key, raise a quorum fence at the
    /// Log-Peers of the next timestamp slot and stamp every grant and
    /// record with this master's epoch. Closes the dual-master grant
    /// window (see ARCHITECTURE.md, "Grant fencing and master epochs").
    /// `false` reproduces the legacy unfenced protocol byte-for-byte.
    pub fencing: bool,
}

impl Default for KtsConfig {
    fn default() -> Self {
        KtsConfig {
            probe_unknown_keys: true,
            probe_on_promote: true,
            max_queue_per_key: 64,
            fencing: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_probing() {
        let c = KtsConfig::default();
        assert!(c.probe_unknown_keys);
        assert!(c.probe_on_promote);
        assert!(c.max_queue_per_key > 0);
        assert!(c.fencing, "grant fencing is on by default");
    }
}
