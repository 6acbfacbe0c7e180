//! TEE-aware client selection (Figure 2-➊).
//!
//! > "The FL server only samples clients with a TEE-compatible device,
//! > discarding those without a TEE. [...] The FL server can ensure the
//! > trustworthiness of the FL client code leveraging novel remote
//! > attestation support."
//!
//! Since the transport redesign, screening is an *endpoint* exchange: the
//! challenge travels to each client as an encoded
//! [`AttestationRequest`](crate::message::AttestationRequest) envelope
//! and the quote comes back the same way, so selection works identically
//! whether the client is a struct in this process or a device across a
//! socket.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

use gradsec_tee::attestation::{verify_quote, Challenge, Measurement};

use crate::transport::RemoteClient;
use crate::{FlError, Result};

/// Outcome of screening one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreeningOutcome {
    /// TEE present and quote verified against the whitelist.
    Eligible,
    /// Device reported no TEE / produced no quote.
    NoTee,
    /// Quote present but failed verification (bad key, stale nonce, or
    /// non-whitelisted TA measurement).
    FailedAttestation,
    /// The attestation exchange itself failed (transport error or a
    /// client-side failure report) — the device cannot participate this
    /// round.
    Unreachable,
}

/// Screens one client against an already-drawn challenge (the
/// coordinator-side half of the attestation exchange). Pure with respect
/// to the server RNG: challenge drawing and screening are split so that
/// sub-sampled and distributed screening consume the selection RNG
/// stream identically to the flat reference.
pub fn screen_one(
    client: &mut RemoteClient,
    expected: Measurement,
    challenge: &Challenge,
) -> ScreeningOutcome {
    let response = match client.attest(challenge) {
        Ok(r) => r,
        Err(_) => return ScreeningOutcome::Unreachable,
    };
    verify_evidence(
        client.attestation_key(),
        response.quote,
        expected,
        challenge,
    )
}

/// Turns raw attestation evidence into a screening verdict, verifying the
/// quote against the provisioning registry's key for the device. This is
/// the same judgement for an in-process client and for evidence relayed
/// by a shard-server process — verification always happens server-side.
pub fn verify_evidence(
    key: &[u8],
    quote: Option<gradsec_tee::attestation::Quote>,
    expected: Measurement,
    challenge: &Challenge,
) -> ScreeningOutcome {
    match quote {
        None => ScreeningOutcome::NoTee,
        Some(quote) => match verify_quote(key, &quote, expected, challenge) {
            Ok(()) => ScreeningOutcome::Eligible,
            Err(_) => ScreeningOutcome::FailedAttestation,
        },
    }
}

/// Screens the candidates of an already-drawn `plan` over in-process
/// endpoints (`clients` indexed by global client id) and returns the
/// verdicts, index-aligned with the plan's candidates. Pure with respect
/// to the server RNG, like [`screen_one`].
pub(crate) fn screen_planned(
    clients: &mut [RemoteClient],
    plan: &ScreenPlan,
    expected: Measurement,
) -> Vec<ScreeningOutcome> {
    plan.candidates
        .iter()
        .zip(plan.challenges.iter())
        .map(|(&i, ch)| screen_one(&mut clients[i], expected, ch))
        .collect()
}

/// Screens every client with a fresh challenge and returns the verdicts,
/// index-aligned with `clients`.
///
/// One nonce is drawn per client in slice order, so the server's RNG
/// stream — and therefore the round's sampling — is identical across
/// transports.
pub fn screen_clients(
    clients: &mut [RemoteClient],
    expected: Measurement,
    rng: &mut StdRng,
) -> Vec<ScreeningOutcome> {
    clients
        .iter_mut()
        .map(|c| {
            let challenge = draw_challenge(rng);
            screen_one(c, expected, &challenge)
        })
        .collect()
}

/// Draws one 16-byte attestation nonce — the single point every
/// screening path consumes the selection RNG through, so nonce streams
/// cannot drift between flat, sharded and distributed runs.
pub fn draw_challenge(rng: &mut StdRng) -> Challenge {
    let mut nonce = [0u8; 16];
    rng.fill(&mut nonce[..]);
    Challenge::new(nonce)
}

/// Samples `m` distinct indices from `0..n` uniformly without
/// replacement (Floyd's algorithm), returned sorted. `m >= n` returns
/// every index without consuming the RNG — the sub-sampled screening
/// path degrades to full screening with an untouched stream.
pub fn sample_indices(n: usize, m: usize, rng: &mut StdRng) -> Vec<usize> {
    if m >= n {
        return (0..n).collect();
    }
    let mut chosen = std::collections::BTreeSet::new();
    for i in (n - m)..n {
        // The vendored RNG only samples half-open ranges; `i + 1` cannot
        // overflow because `i < n <= usize::MAX - 1` (a fleet of
        // usize::MAX clients is unrepresentable in memory).
        let j = rng.random_range(0..i + 1);
        if !chosen.insert(j) {
            chosen.insert(i);
        }
    }
    chosen.into_iter().collect()
}

/// One round's screening plan: which global client indices to challenge
/// (sorted — global client order) and the challenge each gets,
/// index-aligned. Built by
/// [`FlServer::screen_plan`](crate::server::FlServer::screen_plan); with
/// full screening the candidates are simply `0..n`, with sub-sampled
/// screening they are a uniform sample, so per-round selection cost is
/// O(candidates), not O(fleet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenPlan {
    /// Global client indices to screen, sorted ascending.
    pub candidates: Vec<usize>,
    /// The challenge for each candidate, index-aligned.
    pub challenges: Vec<Challenge>,
}

/// Validates a round schedule before it reaches the engine: every index
/// must address a registered client and no client may appear twice (a
/// client trains at most once per round, and a duplicated slot used to
/// leave the engine's result vector with a hole — and a panic).
///
/// Runs in O(`n_clients` + `picked`) with a one-bit-per-client seen map.
///
/// # Errors
///
/// Returns [`FlError::InvalidSelection`] naming the offending index.
pub fn validate_picks(picked: &[usize], n_clients: usize) -> Result<()> {
    let mut seen = vec![false; n_clients];
    for &p in picked {
        if p >= n_clients {
            return Err(FlError::InvalidSelection {
                reason: format!("picked index {p} out of range for {n_clients} clients"),
            });
        }
        if seen[p] {
            return Err(FlError::InvalidSelection {
                reason: format!("client {p} picked twice in one round"),
            });
        }
        seen[p] = true;
    }
    Ok(())
}

/// Samples up to `k` eligible client indices uniformly without
/// replacement, returned in canonical (sorted) order.
///
/// Over-provisioned selection is this same function with
/// `k = clients_per_round + spare` (see
/// [`FlServer::overprovision`](crate::server::FlServer::overprovision)):
/// the runner later commits the first `clients_per_round` *survivors* of
/// the returned canonical order, so faulted rounds keep aggregating a
/// full cohort deterministically.
pub fn sample_eligible(outcomes: &[ScreeningOutcome], k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut eligible: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| **o == ScreeningOutcome::Eligible)
        .map(|(i, _)| i)
        .collect();
    eligible.shuffle(rng);
    eligible.truncate(k);
    eligible.sort_unstable();
    eligible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DeviceProfile, FlClient};
    use crate::trainer::PlainSgdTrainer;
    use crate::transport::inprocess::LocalEndpoint;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;
    use gradsec_tee::crypto::sha256::sha256;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn make_client(id: u64, device: DeviceProfile) -> RemoteClient {
        let ds = Arc::new(SyntheticCifar100::with_classes(8, 2, 1));
        let client = FlClient::new(
            id,
            device,
            ds,
            (0..8).collect(),
            zoo::tiny_mlp(3 * 32 * 32, 4, 2, id).unwrap(),
            Box::new(PlainSgdTrainer),
        );
        RemoteClient::connect(Box::new(LocalEndpoint::new(client))).unwrap()
    }

    fn whitelist() -> Measurement {
        Measurement(sha256(b"gradsec-ta-code-v1"))
    }

    #[test]
    fn screening_partitions_device_kinds() {
        let mut clients = vec![
            make_client(0, DeviceProfile::trustzone(0)),
            make_client(1, DeviceProfile::legacy(1)),
            make_client(2, DeviceProfile::compromised(2)),
            make_client(3, DeviceProfile::trustzone(3)),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let outcomes = screen_clients(&mut clients, whitelist(), &mut rng);
        assert_eq!(
            outcomes,
            vec![
                ScreeningOutcome::Eligible,
                ScreeningOutcome::NoTee,
                ScreeningOutcome::FailedAttestation,
                ScreeningOutcome::Eligible,
            ]
        );
    }

    #[test]
    fn hung_up_clients_screen_as_unreachable() {
        let (server_ep, client_ep) = crate::transport::inprocess::channel_pair();
        // The session thread answers the handshake then exits without a
        // Goodbye, hanging up the channel.
        let handle = std::thread::spawn(move || {
            let mut ep = client_ep;
            use crate::transport::{ClientEndpoint, ClientHandler};
            let ds = Arc::new(SyntheticCifar100::with_classes(8, 2, 1));
            let mut handler = ClientHandler::new(FlClient::new(
                5,
                DeviceProfile::trustzone(5),
                ds,
                (0..8).collect(),
                zoo::tiny_mlp(3 * 32 * 32, 4, 2, 5).unwrap(),
                Box::new(PlainSgdTrainer),
            ));
            let req = ep.recv().unwrap();
            let reply = handler.handle(req).unwrap();
            ep.send(reply).unwrap();
        });
        let mut clients = vec![RemoteClient::connect(Box::new(server_ep)).unwrap()];
        handle.join().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let outcomes = screen_clients(&mut clients, whitelist(), &mut rng);
        assert_eq!(outcomes, vec![ScreeningOutcome::Unreachable]);
    }

    #[test]
    fn unprovisioned_keys_fail_screening() {
        // The server verifies quotes against its provisioning registry
        // (provisioned_key of the handshake-reported id), so a device
        // signing with any other key screens out — the same fate an
        // unprovisioned device meets in the field.
        let mut device = DeviceProfile::trustzone(0);
        device.attestation_key = b"some-other-key".to_vec();
        let mut clients = vec![make_client(0, device)];
        let mut rng = StdRng::seed_from_u64(2);
        let outcomes = screen_clients(&mut clients, whitelist(), &mut rng);
        assert_eq!(outcomes, vec![ScreeningOutcome::FailedAttestation]);
    }

    #[test]
    fn sampling_respects_eligibility_and_k() {
        let outcomes = vec![
            ScreeningOutcome::Eligible,
            ScreeningOutcome::NoTee,
            ScreeningOutcome::Eligible,
            ScreeningOutcome::Eligible,
            ScreeningOutcome::FailedAttestation,
        ];
        let mut rng = StdRng::seed_from_u64(2);
        let picked = sample_eligible(&outcomes, 2, &mut rng);
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().all(|&i| [0usize, 2, 3].contains(&i)));
        // Requesting more than available returns all eligible.
        let mut rng = StdRng::seed_from_u64(3);
        let all = sample_eligible(&outcomes, 10, &mut rng);
        assert_eq!(all, vec![0, 2, 3]);
    }

    #[test]
    fn validate_picks_accepts_legal_schedules() {
        validate_picks(&[], 4).unwrap();
        validate_picks(&[2], 4).unwrap();
        validate_picks(&[3, 0, 2, 1], 4).unwrap();
    }

    #[test]
    fn validate_picks_rejects_duplicates_and_out_of_range() {
        let dup = validate_picks(&[1, 3, 1], 4).unwrap_err();
        assert!(matches!(dup, FlError::InvalidSelection { .. }), "{dup}");
        assert!(dup.to_string().contains("picked twice"));
        let oor = validate_picks(&[0, 4], 4).unwrap_err();
        assert!(matches!(oor, FlError::InvalidSelection { .. }), "{oor}");
        assert!(oor.to_string().contains("out of range"));
    }

    #[test]
    fn injected_faults_screen_as_unreachable() {
        // A fault plan that takes a client down (here: crashed from round
        // 0) surfaces through screening as Unreachable — the same verdict
        // a genuinely dead device earns — so faulted selection needs no
        // special cases downstream.
        use crate::faults::{FaultPlan, FaultyEndpoint};
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::seeded(3).crash_at(1, 0));
        let mut clients: Vec<RemoteClient> = (0..3u64)
            .map(|id| {
                let ds = Arc::new(SyntheticCifar100::with_classes(8, 2, 1));
                let client = FlClient::new(
                    id,
                    DeviceProfile::trustzone(id),
                    ds,
                    (0..8).collect(),
                    zoo::tiny_mlp(3 * 32 * 32, 4, 2, id).unwrap(),
                    Box::new(PlainSgdTrainer),
                );
                let inner: Box<dyn crate::transport::ServerEndpoint> =
                    Box::new(LocalEndpoint::new(client));
                RemoteClient::connect(Box::new(FaultyEndpoint::new(inner, plan.clone()))).unwrap()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let outcomes = screen_clients(&mut clients, whitelist(), &mut rng);
        assert_eq!(
            outcomes,
            vec![
                ScreeningOutcome::Eligible,
                ScreeningOutcome::Unreachable,
                ScreeningOutcome::Eligible,
            ]
        );
    }

    #[test]
    fn sampling_none_when_no_eligible() {
        let outcomes = vec![
            ScreeningOutcome::NoTee,
            ScreeningOutcome::FailedAttestation,
            ScreeningOutcome::Unreachable,
        ];
        let mut rng = StdRng::seed_from_u64(4);
        assert!(sample_eligible(&outcomes, 3, &mut rng).is_empty());
    }
}
