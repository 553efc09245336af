//! Crypto throughput: full-document encrypt+decrypt through the shipping
//! rECB engine ([`RecbDocument`] `create`/`decrypt`), once per AES
//! backend, plus the raw block-cipher speed underneath it and SHA-256
//! per compression engine — same run, same machine.

use pe_core::{DocumentKey, IncrementalCipherDoc, RecbDocument, SchemeParams};
use pe_crypto::aes::FORCE_BACKEND_ENV;
use pe_crypto::sha256::{Sha256, ShaBackend};
use pe_crypto::{AesBackend, BlockCipher, CtrDrbg};

use crate::timing::timed;

/// One measured (document size, backend) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Plaintext size in bytes.
    pub size_bytes: usize,
    /// AES backend the document ran on (`scalar`/`aesni`).
    pub aes_backend: &'static str,
    /// Full-document encrypt (`RecbDocument::create`), seconds.
    pub encrypt_s: f64,
    /// Full-document decrypt (`RecbDocument::decrypt`), seconds.
    pub decrypt_s: f64,
}

impl ThroughputRow {
    /// Roundtrip (encrypt + decrypt) throughput in MiB/s.
    pub fn throughput_mib_s(&self) -> f64 {
        (2.0 * self.size_bytes as f64) / (1024.0 * 1024.0) / (self.encrypt_s + self.decrypt_s)
    }
}

/// Raw block-cipher throughput for one backend: `encrypt_blocks` /
/// `decrypt_blocks` over a contiguous 1 MiB buffer, no document
/// machinery. This is the layer the AES-NI acceptance criterion measures
/// — the document rows above it also carry skip-list and packing costs
/// that dilute the cipher win at large sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct CipherRow {
    /// AES backend measured.
    pub aes_backend: &'static str,
    /// Bulk encryption throughput, MiB/s.
    pub encrypt_mib_s: f64,
    /// Bulk decryption throughput, MiB/s.
    pub decrypt_mib_s: f64,
}

/// Measures raw [`BlockCipher::encrypt_blocks`] / `decrypt_blocks`
/// throughput per backend over a 1 MiB buffer (best of `reps`).
pub fn raw_cipher_throughput(backends: &[AesBackend], reps: usize) -> Vec<CipherRow> {
    let reps = reps.max(1);
    let key = [0x42u8; 16];
    let mut blocks = vec![[0u8; 16]; 65536]; // 1 MiB
    for (i, block) in blocks.iter_mut().enumerate() {
        block[0] = i as u8;
        block[1] = (i >> 8) as u8;
    }
    let mib = blocks.len() as f64 * 16.0 / (1024.0 * 1024.0);
    backends
        .iter()
        .map(|&backend| {
            let cipher = pe_crypto::Aes128::with_backend(&key, backend);
            let mut enc_s = f64::INFINITY;
            let mut dec_s = f64::INFINITY;
            for _ in 0..reps {
                let (_, e) = timed(|| cipher.encrypt_blocks(&mut blocks));
                let (_, d) = timed(|| cipher.decrypt_blocks(&mut blocks));
                enc_s = enc_s.min(e.as_secs_f64());
                dec_s = dec_s.min(d.as_secs_f64());
            }
            CipherRow {
                aes_backend: backend.name(),
                encrypt_mib_s: mib / enc_s,
                decrypt_mib_s: mib / dec_s,
            }
        })
        .collect()
}

/// SHA-256 throughput for one compression engine: a 1 MiB digest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShaRow {
    /// Engine measured (`scalar`/`shani`).
    pub sha_backend: &'static str,
    /// Digest throughput, MiB/s.
    pub mib_s: f64,
}

/// Measures a 1 MiB SHA-256 digest per engine (best of `reps`).
pub fn sha_throughput(backends: &[ShaBackend], reps: usize) -> Vec<ShaRow> {
    let data = sample_text(1024 * 1024);
    backends
        .iter()
        .map(|&backend| {
            let mut best = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let (_, t) = timed(|| {
                    let mut hasher = Sha256::with_backend(backend);
                    hasher.update(&data);
                    hasher.finalize()
                });
                best = best.min(t.as_secs_f64());
            }
            ShaRow { sha_backend: Sha256::with_backend(backend).backend().name(), mib_s: 1.0 / best }
        })
        .collect()
}

/// Deterministic printable plaintext of `len` bytes.
pub fn sample_text(len: usize) -> Vec<u8> {
    let alphabet = b"abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ,. ";
    (0..len).map(|i| alphabet[(i * 31 + i / 7) % alphabet.len()]).collect()
}

/// Measures full-document encrypt+decrypt at each size on the backend
/// [`AesBackend::select`] picks, best of `reps` repetitions per side
/// (minimum wall time, which is the least noisy estimator on a shared
/// machine).
pub fn crypto_throughput(sizes: &[usize], reps: usize, seed: u64) -> Vec<ThroughputRow> {
    let reps = reps.max(1);
    let key = DocumentKey::derive("bench-password", &[0x42u8; 16], 100);
    sizes
        .iter()
        .map(|&size| {
            let text = sample_text(size);
            let mut encrypt_s = f64::INFINITY;
            let mut decrypt_s = f64::INFINITY;
            for rep in 0..reps {
                let rep_seed = seed ^ (rep as u64) << 32 ^ size as u64;
                let (doc, enc) = timed(|| {
                    RecbDocument::create(
                        &key,
                        SchemeParams::recb(8),
                        &text,
                        CtrDrbg::from_seed(rep_seed),
                    )
                    .expect("create")
                });
                let (plain, dec) = timed(|| doc.decrypt().expect("decrypt"));
                assert_eq!(plain, text, "document roundtrip must hold");
                encrypt_s = encrypt_s.min(enc.as_secs_f64());
                decrypt_s = decrypt_s.min(dec.as_secs_f64());
            }
            ThroughputRow {
                size_bytes: size,
                aes_backend: AesBackend::select().name(),
                encrypt_s,
                decrypt_s,
            }
        })
        .collect()
}

/// Runs [`crypto_throughput`] once per forced backend.
///
/// Forces each backend through [`FORCE_BACKEND_ENV`], which is
/// process-global: callers must be effectively single-threaded (the
/// bench binaries are). The previous value is restored on return.
pub fn crypto_throughput_matrix(
    sizes: &[usize],
    reps: usize,
    seed: u64,
    backends: &[AesBackend],
) -> Vec<ThroughputRow> {
    let saved = std::env::var(FORCE_BACKEND_ENV).ok();
    let mut rows = Vec::with_capacity(backends.len() * sizes.len());
    for &backend in backends {
        std::env::set_var(FORCE_BACKEND_ENV, backend.name());
        rows.extend(crypto_throughput(sizes, reps, seed));
    }
    match saved {
        Some(value) => std::env::set_var(FORCE_BACKEND_ENV, value),
        None => std::env::remove_var(FORCE_BACKEND_ENV),
    }
    rows
}

/// Renders the rows as the JSON document committed as `BENCH_crypto.json`.
pub fn render_json(
    rows: &[ThroughputRow],
    cipher_rows: &[CipherRow],
    sha_rows: &[ShaRow],
    reps: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"crypto_throughput\",\n");
    out.push_str("  \"mode\": \"recb\",\n");
    out.push_str("  \"block_size\": 8,\n");
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"aesni_supported\": {},\n", AesBackend::aesni_supported()));
    out.push_str(&format!("  \"shani_supported\": {},\n", ShaBackend::shani_supported()));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"size_bytes\": {}, \"aes_backend\": \"{}\", \"encrypt_s\": {:.6}, \
             \"decrypt_s\": {:.6}, \"throughput_mib_s\": {:.2}}}{}\n",
            row.size_bytes,
            row.aes_backend,
            row.encrypt_s,
            row.decrypt_s,
            row.throughput_mib_s(),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"cipher_rows\": [\n");
    for (i, row) in cipher_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"aes_backend\": \"{}\", \"encrypt_mib_s\": {:.2}, \
             \"decrypt_mib_s\": {:.2}}}{}\n",
            row.aes_backend,
            row.encrypt_mib_s,
            row.decrypt_mib_s,
            if i + 1 == cipher_rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sha_rows\": [\n");
    for (i, row) in sha_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"sha_backend\": \"{}\", \"mib_s\": {:.2}}}{}\n",
            row.sha_backend,
            row.mib_s,
            if i + 1 == sha_rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_rows_cover_every_size() {
        let rows = crypto_throughput(&[256, 1024], 1, 7);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.encrypt_s > 0.0 && row.decrypt_s > 0.0);
            assert!(row.throughput_mib_s() > 0.0);
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let rows = crypto_throughput(&[512], 1, 9);
        let cipher_rows = raw_cipher_throughput(&[AesBackend::select()], 1);
        let sha_rows = sha_throughput(&[ShaBackend::Scalar], 1);
        let json = render_json(&rows, &cipher_rows, &sha_rows, 1);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"size_bytes\": 512"));
        assert!(json.contains("\"throughput_mib_s\""));
        assert!(json.contains("\"aes_backend\": \""));
        assert!(json.contains("\"aesni_supported\": "));
        assert!(json.contains("\"cipher_rows\""));
        assert!(json.contains("\"encrypt_mib_s\""));
        assert!(json.contains("\"sha_rows\""));
        assert!(json.contains("\"sha_backend\": \"scalar\""));
        assert!(json.contains("\"shani_supported\": "));
        // Balanced braces/brackets (a cheap structural check without a
        // JSON parser in the dependency set).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sample_text_is_deterministic() {
        assert_eq!(sample_text(100), sample_text(100));
        assert_eq!(sample_text(100).len(), 100);
    }

    #[test]
    fn backend_matrix_labels_rows() {
        let rows =
            crypto_throughput_matrix(&[256], 1, 3, &[AesBackend::Scalar, AesBackend::AesNi]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].aes_backend, "scalar");
        // Forcing aesni on a CPU without it runs the reference engine.
        let hardware = if AesBackend::aesni_supported() { "aesni" } else { "scalar" };
        assert_eq!(rows[1].aes_backend, hardware);
    }
}
