use crate::chain::Ctmc;
use crate::triggered::{Mode, TriggeredCtmc};

/// A stable, hash-friendly structural signature of a chain definition.
///
/// Two chains have equal signatures iff they are *identical as labelled
/// transition systems over their dense state indices*: same state count,
/// same sparse rate matrix (bit-exact rates), same initial distribution,
/// same failed set — and, for triggered chains, the same mode partition
/// and (un)triggering maps. Node names do not exist at this level, so the
/// signature is automatically independent of how the surrounding fault
/// tree labels its events.
///
/// Signatures are cheap to hash and compare, and they order
/// deterministically (lexicographic over the canonical byte encoding),
/// so collections of signatures can be sorted into a canonical order.
///
/// The equality guarantee is exact, not probabilistic: the signature *is*
/// the full canonical encoding, not a digest of it, so equal signatures
/// imply bitwise-identical transient analysis results.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChainSignature(Vec<u8>);

impl ChainSignature {
    /// The canonical byte encoding backing this signature.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the canonical encoding in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the encoding is empty (never true for built chains).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Incremental writer for canonical signature encodings. All integers are
/// written little-endian at fixed width and floats as their IEEE-754 bit
/// patterns, so the encoding is deterministic across platforms.
#[derive(Debug, Default)]
pub(crate) struct SignatureWriter {
    bytes: Vec<u8>,
}

impl SignatureWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn with_capacity(bytes: usize) -> Self {
        SignatureWriter {
            bytes: Vec::with_capacity(bytes),
        }
    }

    pub(crate) fn tag(&mut self, tag: u8) {
        self.bytes.push(tag);
    }

    pub(crate) fn usize(&mut self, value: usize) {
        self.bytes.extend_from_slice(&(value as u64).to_le_bytes());
    }

    pub(crate) fn f64(&mut self, value: f64) {
        // Bit pattern, so +0.0 and -0.0 (and NaN payloads) stay distinct;
        // exactness matters more than float-semantics equality here.
        self.bytes.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    pub(crate) fn finish(self) -> ChainSignature {
        ChainSignature(self.bytes)
    }
}

impl Ctmc {
    /// The structural signature of this chain (see [`ChainSignature`]).
    #[must_use]
    pub fn structural_signature(&self) -> ChainSignature {
        // Tag and length, 17 bytes per state (row length, initial
        // probability, failed flag) and 16 per transition: sized once,
        // so the encoding never regrows its buffer.
        let mut w =
            SignatureWriter::with_capacity(9 + 17 * self.len() + 16 * self.transition_count());
        w.tag(b'C');
        self.write_signature(&mut w);
        w.finish()
    }

    pub(crate) fn write_signature(&self, w: &mut SignatureWriter) {
        w.usize(self.len());
        for state in 0..self.len() {
            let transitions = self.transitions_from(state);
            w.usize(transitions.len());
            for &(to, rate) in transitions {
                w.usize(to);
                w.f64(rate);
            }
        }
        for &p in self.initial_distribution() {
            w.f64(p);
        }
        for state in 0..self.len() {
            w.tag(u8::from(self.is_failed(state)));
        }
    }
}

impl TriggeredCtmc {
    /// The structural signature of this triggered chain: the underlying
    /// chain's signature extended with the mode partition and the
    /// (un)triggering maps (see [`ChainSignature`]).
    #[must_use]
    pub fn structural_signature(&self) -> ChainSignature {
        let mut w = SignatureWriter::new();
        w.tag(b'T');
        self.chain().write_signature(&mut w);
        for state in 0..self.len() {
            match self.mode(state) {
                Mode::Off => {
                    w.tag(0);
                    w.usize(self.on_of(state));
                }
                Mode::On => {
                    w.tag(1);
                    w.usize(self.off_of(state));
                }
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::chain::CtmcBuilder;
    use crate::erlang;

    #[test]
    fn identical_chains_share_a_signature() {
        let a = erlang::repairable(2, 1e-3, 0.05).unwrap();
        let b = erlang::repairable(2, 1e-3, 0.05).unwrap();
        assert_eq!(a.structural_signature(), b.structural_signature());
    }

    #[test]
    fn rates_state_counts_and_failed_sets_distinguish() {
        let base = erlang::repairable(2, 1e-3, 0.05).unwrap();
        let other_rate = erlang::repairable(2, 2e-3, 0.05).unwrap();
        let other_phases = erlang::repairable(3, 1e-3, 0.05).unwrap();
        assert_ne!(
            base.structural_signature(),
            other_rate.structural_signature()
        );
        assert_ne!(
            base.structural_signature(),
            other_phases.structural_signature()
        );

        let failed1 = CtmcBuilder::new(2)
            .initial(0, 1.0)
            .rate(0, 1, 1.0)
            .failed(1)
            .build()
            .unwrap();
        let failed_none = CtmcBuilder::new(2)
            .initial(0, 1.0)
            .rate(0, 1, 1.0)
            .build()
            .unwrap();
        assert_ne!(
            failed1.structural_signature(),
            failed_none.structural_signature()
        );
    }

    #[test]
    fn triggered_mode_structure_distinguishes() {
        let spare = erlang::spare(1e-3, 0.05).unwrap();
        let same = erlang::spare(1e-3, 0.05).unwrap();
        assert_eq!(spare.structural_signature(), same.structural_signature());
        let other = erlang::spare(1e-3, 0.06).unwrap();
        assert_ne!(spare.structural_signature(), other.structural_signature());
        // A triggered chain never collides with a plain chain.
        let plain = erlang::repairable(1, 1e-3, 0.05).unwrap();
        assert_ne!(spare.structural_signature(), plain.structural_signature());
    }

    #[test]
    fn signatures_order_deterministically() {
        let a = erlang::repairable(1, 1e-3, 0.05)
            .unwrap()
            .structural_signature();
        let b = erlang::repairable(2, 1e-3, 0.05)
            .unwrap()
            .structural_signature();
        let mut sorted = vec![b.clone(), a.clone()];
        sorted.sort();
        let mut again = vec![a, b];
        again.sort();
        assert_eq!(sorted, again);
        assert!(!sorted[0].is_empty());
        assert_eq!(sorted[0].as_bytes().len(), sorted[0].len());
    }
}
