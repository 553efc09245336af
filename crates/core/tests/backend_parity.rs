//! End-to-end backend parity: the serialized rECB and RPC ciphertexts
//! must be byte-identical no matter which AES backend the process forces.
//!
//! Exercises the `PE_CRYPTO_FORCE_BACKEND` override exactly as an
//! operator would — the backend is selected when `DocumentKey::cipher()`
//! builds the key schedule — rather than through the in-process
//! `with_backend` constructors the pe-crypto matrix uses. One `#[test]`
//! only: the override is process-global, so no sibling test may race it.

use pe_core::{DocumentKey, EditOp, IncrementalCipherDoc, RecbDocument, RpcDocument, SchemeParams};
use pe_crypto::aes::FORCE_BACKEND_ENV;
use pe_crypto::{AesBackend, CtrDrbg};

/// A full scripted session under the currently forced backend: create,
/// edit, serialize, reopen, decrypt — returning every wire artifact.
fn session() -> (String, String, Vec<u8>, Vec<u8>) {
    let key = DocumentKey::derive("correct horse battery", &[7u8; 16], 100);
    let text = b"the paper's O(edit) claim only holds if the cipher is cheap";

    let mut recb =
        RecbDocument::create(&key, SchemeParams::recb(8), text, CtrDrbg::from_seed(11)).unwrap();
    recb.apply(&EditOp::insert(4, b"source ")).unwrap();
    recb.apply(&EditOp::delete(30, 6)).unwrap();
    let recb_wire = recb.serialize();
    let recb_plain = RecbDocument::open(&key, &recb_wire, CtrDrbg::from_seed(12))
        .unwrap()
        .decrypt()
        .unwrap();

    let mut rpc =
        RpcDocument::create(&key, SchemeParams::rpc(7), text, CtrDrbg::from_seed(21)).unwrap();
    rpc.apply(&EditOp::insert(0, b"NB: ")).unwrap();
    rpc.apply(&EditOp::delete(10, 3)).unwrap();
    let rpc_wire = rpc.serialize();
    let rpc_plain =
        RpcDocument::open(&key, &rpc_wire, CtrDrbg::from_seed(22)).unwrap().decrypt().unwrap();

    (recb_wire, rpc_wire, recb_plain, rpc_plain)
}

#[test]
fn forced_backends_produce_identical_documents() {
    let mut backends = vec![AesBackend::Scalar];
    if AesBackend::aesni_supported() {
        backends.push(AesBackend::AesNi);
    }

    let mut results = Vec::new();
    for &backend in &backends {
        std::env::set_var(FORCE_BACKEND_ENV, backend.name());
        assert_eq!(AesBackend::select(), backend, "override must stick");
        results.push((backend, session()));
    }
    std::env::remove_var(FORCE_BACKEND_ENV);

    let (_, reference) = &results[0];
    for (backend, outcome) in &results[1..] {
        assert_eq!(
            outcome.0, reference.0,
            "rECB wire ciphertext differs between {backend} and {}",
            results[0].0
        );
        assert_eq!(
            outcome.1, reference.1,
            "RPC wire ciphertext differs between {backend} and {}",
            results[0].0
        );
    }
    for (backend, outcome) in &results[1..] {
        assert_eq!(outcome.2, reference.2, "rECB roundtrip plaintext on {backend}");
        assert_eq!(outcome.3, reference.3, "RPC roundtrip plaintext on {backend}");
    }
    assert!(
        std::str::from_utf8(&reference.2).is_ok() && !reference.2.is_empty(),
        "rECB roundtrip plaintext is sane"
    );
}
