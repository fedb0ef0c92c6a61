//! Internal per-sequence state.

use sp_metrics::SimTime;
use sp_workload::Request;

/// A request admitted into the running batch.
///
/// Decode progress is read off the engine's decode *epoch*, a counter
/// that a uniform advance (one token for every decoding sequence)
/// increments once: a decoding sequence stores the epoch at which it
/// emits its last token, so the advance touches no sequence. Every
/// progress reader therefore takes the current epoch.
#[derive(Debug, Clone)]
pub(crate) struct RunningSeq {
    pub request: Request,
    /// Prompt tokens already prefetched into the KV cache.
    pub prefill_done: u64,
    /// The decode epoch at which the last output token is emitted, set
    /// with the first token: at epoch `e` the sequence has generated
    /// `output_tokens − (finish − e)` tokens. An uneven advance of
    /// `emitted` tokens moves it `emitted` epochs earlier. Unused while
    /// in prefill.
    pub finish: u64,
    /// Admission number: strictly increasing along the running batch,
    /// so a sequence is found there by binary search.
    pub admitted: u64,
    /// When the first output token was emitted (end of final prefill
    /// chunk's iteration), if reached.
    pub first_token: Option<SimTime>,
    /// Fractional speculative-decoding acceptance carried between steps.
    pub spec_carry: f64,
}

impl RunningSeq {
    pub fn new(request: Request, admitted: u64) -> RunningSeq {
        RunningSeq {
            request,
            prefill_done: 0,
            finish: 0,
            admitted,
            first_token: None,
            spec_carry: 0.0,
        }
    }

    /// Prompt tokens still to prefill.
    pub fn prefill_remaining(&self) -> u64 {
        u64::from(self.request.input_tokens) - self.prefill_done
    }

    /// True once the whole prompt is in the KV cache.
    pub fn in_decode(&self) -> bool {
        self.prefill_remaining() == 0
    }

    /// Emits the first output token at `now`, when the decode epoch is
    /// `epoch`: the other `output_tokens − 1` follow one per epoch.
    pub fn start_decode(&mut self, now: SimTime, epoch: u64) {
        self.first_token = Some(now);
        self.finish = epoch + u64::from(self.request.output_tokens) - 1;
    }

    /// Output tokens still to generate at `epoch` (0 once all are
    /// emitted). The decode fast-forward's run length is the minimum of
    /// this over the running batch: no sequence can complete earlier.
    pub fn decode_remaining(&self, epoch: u64) -> u32 {
        if self.first_token.is_none() {
            return self.request.output_tokens;
        }
        (self.finish - epoch) as u32
    }

    /// Output tokens generated so far.
    pub fn generated(&self, epoch: u64) -> u32 {
        self.request.output_tokens - self.decode_remaining(epoch)
    }

    /// Current context length (prompt prefix + generated tokens).
    pub fn context_len(&self, epoch: u64) -> u64 {
        self.prefill_done + u64::from(self.generated(epoch))
    }

    /// True once all output tokens have been generated.
    ///
    /// The first output token is produced by the final prefill chunk, so
    /// decode iterations only need to generate `output_tokens - 1` more.
    pub fn finished(&self, epoch: u64) -> bool {
        self.first_token.is_some() && self.finish <= epoch
    }

    /// A decoding sequence's attended positions (`context + 1`) less the
    /// epoch, modulo 2^64: the epoch-free part of the engine's attended
    /// sum, which a uniform advance leaves unchanged.
    pub fn attended_offset(&self) -> u64 {
        (self.prefill_done + u64::from(self.request.output_tokens) + 1).wrapping_sub(self.finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_workload::RequestClass;

    fn seq(input: u32, output: u32) -> RunningSeq {
        RunningSeq::new(
            Request {
                id: 1,
                arrival: SimTime::ZERO,
                input_tokens: input,
                output_tokens: output,
                class: RequestClass::Interactive,
                cached_prefix: 0,
                prefix_group: None,
            },
            0,
        )
    }

    #[test]
    fn fresh_sequence_is_in_prefill() {
        let s = seq(100, 10);
        assert_eq!(s.prefill_remaining(), 100);
        assert!(!s.in_decode());
        assert!(!s.finished(0));
        assert_eq!(s.decode_remaining(7), 10);
    }

    #[test]
    fn prefill_progress_transitions_to_decode() {
        let mut s = seq(100, 10);
        s.prefill_done = 100;
        assert!(s.in_decode());
        assert_eq!(s.context_len(5), 100);
        s.start_decode(SimTime::from_secs(1.0), 5);
        assert_eq!((s.generated(5), s.context_len(5)), (1, 101));
        assert_eq!(s.attended_offset().wrapping_add(5), 102);
    }

    #[test]
    fn finishes_after_all_outputs() {
        let mut s = seq(10, 3);
        s.prefill_done = 10;
        s.start_decode(SimTime::from_secs(1.0), 4);
        assert_eq!(s.finish, 6);
        assert!(!s.finished(5));
        assert_eq!(s.decode_remaining(5), 1);
        assert!(s.finished(6));
        assert_eq!(s.generated(6), 3);
    }
}
