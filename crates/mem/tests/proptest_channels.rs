//! Property-based tests for the memory-channel models: conservation,
//! ordering and rate compliance for arbitrary data and rates.

use fblas_mem::{ReadChannel, SramBanks, WriteChannel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every word put into a read channel comes out exactly once, in
    /// order, and never faster than the configured rate allows.
    #[test]
    fn read_channel_conserves_and_orders(
        data in prop::collection::vec(-1e9f64..1e9, 1..300),
        rate_millis in 100u64..4000
    ) {
        let rate = rate_millis as f64 / 1000.0;
        let n = data.len();
        let mut ch = ReadChannel::new(&data, rate);
        let mut got = Vec::with_capacity(n);
        let mut cycles = 0u64;
        while !ch.exhausted() {
            cycles += 1;
            prop_assert!(cycles < 100_000, "livelock");
            ch.tick();
            ch.read_up_to(usize::MAX, &mut got);
            // Prefix rate compliance: delivered ≤ rate·cycles + burst.
            prop_assert!(
                got.len() as f64 <= rate * cycles as f64 + rate.ceil() + 1.0,
                "cycle {cycles}: {} words exceeds rate budget",
                got.len()
            );
        }
        prop_assert_eq!(got, data);
    }

    /// A write channel stores exactly what was accepted, in order.
    #[test]
    fn write_channel_conserves(
        data in prop::collection::vec(-1e9f64..1e9, 1..200),
        rate_millis in 500u64..3000
    ) {
        let rate = rate_millis as f64 / 1000.0;
        let mut ch = WriteChannel::new(rate);
        let mut pending = data.clone();
        pending.reverse();
        let mut cycles = 0u64;
        while ch.words_written() < data.len() {
            cycles += 1;
            prop_assert!(cycles < 100_000, "livelock");
            ch.tick();
            while let Some(&v) = pending.last() {
                if ch.write(v) {
                    pending.pop();
                } else {
                    break;
                }
            }
        }
        prop_assert_eq!(ch.into_data(), data);
    }

    /// Striping across banks is a bijection: reading the banks cycle by
    /// cycle reconstructs the original stream.
    #[test]
    fn sram_striping_roundtrips(
        data in prop::collection::vec(-1e6f64..1e6, 1..400),
        n_banks in 1usize..8
    ) {
        let mut banks = SramBanks::striped(&data, n_banks);
        let mut out = Vec::new();
        let mut slots = Vec::new();
        while !banks.exhausted() {
            banks.read_cycle(&mut slots);
            for v in slots.iter().flatten() {
                out.push(*v);
            }
        }
        prop_assert_eq!(out, data);
    }

    /// Bank delivery is exactly one word per bank per cycle.
    #[test]
    fn sram_rate_is_one_word_per_bank(data_len in 1usize..500, n_banks in 1usize..6) {
        let data = vec![1.0f64; data_len];
        let mut banks = SramBanks::striped(&data, n_banks);
        let mut slots = Vec::new();
        while !banks.exhausted() {
            let before = banks.words_delivered();
            banks.read_cycle(&mut slots);
            prop_assert!(banks.words_delivered() - before <= n_banks as u64);
        }
        prop_assert_eq!(banks.words_delivered(), data_len as u64);
    }
}
