#include "src/core/key_shuffle.h"

#include <atomic>

#include "src/crypto/multiexp.h"
#include "src/util/parallel.h"
#include "src/util/serialize.h"

namespace dissent {

BigInt RemainingKey(const GroupDef& def, size_t first_server) {
  BigInt h = def.group->Identity();
  for (size_t j = first_server; j < def.num_servers(); ++j) {
    h = def.group->MulElems(h, def.server_pubs[j]);
  }
  return h;
}

MixStep KeyShuffleMixStep(const GroupDef& def, size_t server_index, const BigInt& server_priv,
                          const CiphertextMatrix& inputs, SecureRng& rng) {
  const Group& g = *def.group;
  BigInt remaining = RemainingKey(def, server_index);

  MixStep step;
  ShuffleResult shuffled = ApplyRandomShuffle(g, remaining, inputs, rng);
  step.shuffled = shuffled.outputs;
  step.shuffle_proof = ShuffleProve(g, remaining, inputs, step.shuffled, shuffled.witness, rng);

  const size_t rows = step.shuffled.size();
  step.decrypted.resize(rows);
  step.decrypt_proofs.resize(rows);
  if (!CryptoFastPathEnabled()) {
    for (size_t i = 0; i < rows; ++i) {
      step.decrypted[i].resize(step.shuffled[i].size());
      step.decrypt_proofs[i].resize(step.shuffled[i].size());
      for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
        const ElGamalCiphertext& ct = step.shuffled[i][l];
        ElGamalCiphertext peeled = ElGamalPartialDecrypt(g, server_priv, ct);
        // ratio = b / b' = a^{x_j}; prove log_g(h_j) == log_a(ratio).
        BigInt ratio = g.MulElems(ct.b, g.InvElem(peeled.b));
        step.decrypt_proofs[i][l] = DleqProve(g, g.g(), def.server_pubs[server_index], ct.a,
                                              ratio, server_priv, rng);
        step.decrypted[i][l] = peeled;
      }
    }
    return step;
  }
  // Fast path: the per-ciphertext decrypt layers are independent, so draw
  // the DLEQ nonces serially (same row-major rng stream as the reference
  // loop) and fan the exponentiations across workers; the N per-cell modular
  // inverses collapse into one batch inversion. Output is bit-identical to
  // the serial reference.
  std::vector<std::vector<BigInt>> nonces(rows);
  for (size_t i = 0; i < rows; ++i) {
    nonces[i].resize(step.shuffled[i].size());
    for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
      nonces[i][l] = g.RandomScalar(rng);
    }
  }
  // a^{x_j} per cell: the decrypted ratio and the inverse's denominator.
  std::vector<std::vector<BigInt>> ax(rows);
  ParallelFor(rows, DefaultCryptoThreads(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ax[i].resize(step.shuffled[i].size());
      for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
        ax[i][l] = g.ExpSecret(step.shuffled[i][l].a, server_priv);
      }
    }
  });
  std::vector<BigInt> flat;
  flat.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (const BigInt& v : ax[i]) {
      flat.push_back(v);
    }
  }
  std::vector<BigInt> flat_inv = g.BatchInvElems(flat);
  size_t cell = 0;
  for (size_t i = 0; i < rows; ++i) {
    step.decrypted[i].resize(step.shuffled[i].size());
    step.decrypt_proofs[i].resize(step.shuffled[i].size());
    for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
      const ElGamalCiphertext& ct = step.shuffled[i][l];
      step.decrypted[i][l] = {ct.a, g.MulElems(ct.b, flat_inv[cell++])};
    }
  }
  ParallelFor(rows, DefaultCryptoThreads(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
        const ElGamalCiphertext& ct = step.shuffled[i][l];
        step.decrypt_proofs[i][l] =
            DleqProveWithNonce(g, g.g(), def.server_pubs[server_index], ct.a, ax[i][l],
                               server_priv, nonces[i][l]);
      }
    }
  });
  return step;
}

bool VerifyMixStep(const GroupDef& def, size_t server_index, const CiphertextMatrix& inputs,
                   const MixStep& step) {
  const Group& g = *def.group;
  BigInt remaining = RemainingKey(def, server_index);
  if (!ShuffleVerify(g, remaining, inputs, step.shuffled, step.shuffle_proof)) {
    return false;
  }
  if (step.decrypted.size() != step.shuffled.size() ||
      step.decrypt_proofs.size() != step.shuffled.size()) {
    return false;
  }
  for (size_t i = 0; i < step.shuffled.size(); ++i) {
    if (step.decrypted[i].size() != step.shuffled[i].size() ||
        step.decrypt_proofs[i].size() != step.shuffled[i].size()) {
      return false;
    }
  }
  if (!CryptoFastPathEnabled()) {
    for (size_t i = 0; i < step.shuffled.size(); ++i) {
      for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
        const ElGamalCiphertext& before = step.shuffled[i][l];
        const ElGamalCiphertext& after = step.decrypted[i][l];
        if (after.a != before.a || !g.IsElement(after.b)) {
          return false;
        }
        BigInt ratio = g.MulElems(before.b, g.InvElem(after.b));
        if (!DleqVerify(g, g.g(), def.server_pubs[server_index], before.a, ratio,
                        step.decrypt_proofs[i][l])) {
          return false;
        }
      }
    }
    return true;
  }
  // Fast path: one batch inversion for the N ratios, then the whole decrypt
  // layer verifies as a single MultiExp relation (DleqBatchVerify) instead
  // of 4 exponentiations per ciphertext.
  std::vector<BigInt> after_b;
  for (size_t i = 0; i < step.shuffled.size(); ++i) {
    for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
      const ElGamalCiphertext& before = step.shuffled[i][l];
      const ElGamalCiphertext& after = step.decrypted[i][l];
      if (after.a != before.a || !g.IsElement(after.b)) {
        return false;
      }
      after_b.push_back(after.b);
    }
  }
  std::vector<BigInt> after_b_inv = g.BatchInvElems(after_b);
  std::vector<DleqBatchItem> items;
  items.reserve(after_b.size());
  size_t cell = 0;
  for (size_t i = 0; i < step.shuffled.size(); ++i) {
    for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
      const ElGamalCiphertext& before = step.shuffled[i][l];
      items.push_back({before.a, g.MulElems(before.b, after_b_inv[cell++]),
                       step.decrypt_proofs[i][l]});
    }
  }
  return DleqBatchVerify(g, g.g(), def.server_pubs[server_index], items);
}

CiphertextMatrix::value_type EncryptPseudonymKey(const GroupDef& def,
                                                 const BigInt& pseudonym_pub, SecureRng& rng) {
  return {ElGamalEncrypt(*def.group, RemainingKey(def, 0), pseudonym_pub, rng)};
}

size_t MessageBlockWidth(const GroupDef& def, size_t len) {
  size_t cap = def.group->MessageCapacity();
  // First block carries a 4-byte length header.
  size_t total = len + 4;
  return (total + cap - 1) / cap;
}

std::optional<std::vector<ElGamalCiphertext>> EncryptMessageBlocks(const GroupDef& def,
                                                                   const Bytes& message,
                                                                   size_t width,
                                                                   SecureRng& rng) {
  const Group& g = *def.group;
  size_t cap = g.MessageCapacity();
  if (MessageBlockWidth(def, message.size()) > width) {
    return std::nullopt;
  }
  Bytes framed;
  framed.reserve(4 + message.size());
  for (int b = 0; b < 4; ++b) {
    framed.push_back(static_cast<uint8_t>(message.size() >> (8 * b)));
  }
  framed.insert(framed.end(), message.begin(), message.end());
  framed.resize(width * cap, 0);

  BigInt combined = RemainingKey(def, 0);
  std::vector<ElGamalCiphertext> row(width);
  for (size_t l = 0; l < width; ++l) {
    Bytes block(framed.begin() + l * cap, framed.begin() + (l + 1) * cap);
    auto elem = g.EncodeMessage(block);
    if (!elem.has_value()) {
      return std::nullopt;
    }
    row[l] = ElGamalEncrypt(g, combined, *elem, rng);
  }
  return row;
}

std::optional<Bytes> DecodeMessageBlocks(const GroupDef& def,
                                         const std::vector<ElGamalCiphertext>& row) {
  const Group& g = *def.group;
  Bytes framed;
  for (const ElGamalCiphertext& ct : row) {
    auto block = g.DecodeMessage(ct.b);
    if (!block.has_value()) {
      return std::nullopt;
    }
    framed.insert(framed.end(), block->begin(), block->end());
  }
  if (framed.size() < 4) {
    return std::nullopt;
  }
  size_t len = 0;
  for (int b = 0; b < 4; ++b) {
    len |= static_cast<size_t>(framed[b]) << (8 * b);
  }
  if (len + 4 > framed.size()) {
    return std::nullopt;
  }
  return Bytes(framed.begin() + 4, framed.begin() + 4 + len);
}

ShuffleCascadeResult RunShuffleCascade(const GroupDef& def,
                                       const std::vector<BigInt>& server_privs,
                                       const CiphertextMatrix& submissions, SecureRng& rng) {
  ShuffleCascadeResult result;
  CiphertextMatrix current = submissions;
  for (size_t j = 0; j < def.num_servers(); ++j) {
    MixStep step = KeyShuffleMixStep(def, j, server_privs[j], current, rng);
    current = step.decrypted;
    result.steps.push_back(std::move(step));
  }
  result.final_rows = current;
  return result;
}

bool VerifyShuffleCascade(const GroupDef& def, const CiphertextMatrix& submissions,
                          const ShuffleCascadeResult& result) {
  if (result.steps.size() != def.num_servers()) {
    return false;
  }
  // Every step's claimed inputs are already in hand (step j consumes step
  // j-1's decrypted matrix), so the M step verifications are independent and
  // fan out across workers on the fast path; the chaining itself is enforced
  // by passing exactly those matrices as the expected inputs.
  const size_t steps = result.steps.size();
  if (steps == 0) {
    return submissions == result.final_rows;
  }
  std::vector<const CiphertextMatrix*> step_inputs(steps);
  step_inputs[0] = &submissions;
  for (size_t j = 1; j < steps; ++j) {
    step_inputs[j] = &result.steps[j - 1].decrypted;
  }
  const size_t threads = DefaultCryptoThreads();
  if (CryptoFastPathEnabled() && threads > 1 && steps > 1) {
    std::atomic<bool> ok{true};
    ParallelFor(steps, std::min(threads, steps), [&](size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        if (!ok.load(std::memory_order_relaxed)) {
          return;
        }
        if (!VerifyMixStep(def, j, *step_inputs[j], result.steps[j])) {
          ok.store(false, std::memory_order_relaxed);
        }
      }
    });
    if (!ok.load()) {
      return false;
    }
  } else {
    for (size_t j = 0; j < steps; ++j) {
      if (!VerifyMixStep(def, j, *step_inputs[j], result.steps[j])) {
        return false;
      }
    }
  }
  return result.steps.back().decrypted == result.final_rows;
}

// --- wire codecs ---

namespace {

// Group elements and scalars travel as fixed-width raw bytes; reading one
// checks subgroup membership (resp. range).
template <class Io>
bool Elem(Io& io, const Group& g, BigInt& e) {
  return io.RawOf(
      e, g.ElementBytes(), [&g](const BigInt& x) { return g.ElementToBytes(x); },
      [&g](const Bytes& b) { return g.ElementFromBytes(b); });
}
template <class Io>
bool Scalar(Io& io, const Group& g, BigInt& s) {
  return io.RawOf(
      s, g.ScalarBytes(), [&g](const BigInt& x) { return g.ScalarToBytes(x); },
      [&g](const Bytes& b) { return g.ScalarFromBytes(b); });
}
template <class Io>
bool Elems(Io& io, const Group& g, std::vector<BigInt>& v) {
  return io.Seq(v, g.ElementBytes(), [&](BigInt& e) { return Elem(io, g, e); });
}
template <class Io>
bool Scalars(Io& io, const Group& g, std::vector<BigInt>& v) {
  return io.Seq(v, g.ScalarBytes(), [&](BigInt& s) { return Scalar(io, g, s); });
}
template <class Io>
bool Cells(Io& io, const Group& g, std::vector<ElGamalCiphertext>& row, size_t width) {
  return io.Each(row, width,
                 [&](ElGamalCiphertext& ct) { return Elem(io, g, ct.a) && Elem(io, g, ct.b); });
}

// [u32 rows][u32 width][cells, row-major]. Every cell takes two full
// elements, so both counts are bounded by the remaining input before
// anything is allocated; an empty width is refused.
template <class Io>
bool Matrix(Io& io, const Group& g, CiphertextMatrix& m) {
  const size_t cell = 2 * g.ElementBytes();
  uint32_t rows = static_cast<uint32_t>(m.size());
  uint32_t width = m.empty() ? 0 : static_cast<uint32_t>(m[0].size());
  return io.U32(rows) && io.U32(width) && io.Fits(width, cell) &&
         io.Fits(rows, static_cast<size_t>(width) * cell) &&
         io.Each(m, rows,
                 [&](std::vector<ElGamalCiphertext>& row) { return Cells(io, g, row, width); });
}

template <class Io>
bool RowFields(Io& io, const Group& g, std::vector<ElGamalCiphertext>& row,
               size_t expected_width) {
  uint32_t width = static_cast<uint32_t>(row.size());
  return io.U32(width) && io.Check(width == expected_width) && Cells(io, g, row, width);
}

}  // namespace

template <class Io>
bool Fields(Io& io, MixStep& step, const Group& g) {
  ShuffleProof& p = step.shuffle_proof;
  const auto same_shape = [&] {
    return step.decrypted.size() == step.shuffled.size() &&
           (step.decrypted.empty() || step.decrypted[0].size() == step.shuffled[0].size());
  };
  // The DLEQ proofs, one per decrypted cell in row-major order, carry no
  // count: the decrypted matrix's shape (already bounded by the input size)
  // implies it.
  return Matrix(io, g, step.shuffled) && Elem(io, g, p.gamma_commit) &&
         Elems(io, g, p.f_elems) && Elems(io, g, p.perm_proof.ilmpp.commits) &&
         Scalars(io, g, p.perm_proof.ilmpp.responses) && Elems(io, g, p.q_a) &&
         Elems(io, g, p.q_b) && Elems(io, g, p.bind_t_f) && Elems(io, g, p.bind_t_qa) &&
         Elems(io, g, p.bind_t_qb) && Scalars(io, g, p.bind_z) && Elems(io, g, p.prod_t_a) &&
         Elems(io, g, p.prod_t_b) && Elem(io, g, p.prod_t_gamma) &&
         Scalar(io, g, p.prod_z_s) && Scalars(io, g, p.prod_z_t) &&
         Matrix(io, g, step.decrypted) && io.Check(same_shape()) &&
         io.Each(step.decrypt_proofs, step.decrypted.size(), [&](std::vector<DleqProof>& row) {
           return io.Each(row, step.decrypted[0].size(), [&](DleqProof& proof) {
             return Elem(io, g, proof.commit1) && Elem(io, g, proof.commit2) &&
                    Scalar(io, g, proof.response);
           });
         });
}

Bytes SerializeCiphertextRow(const Group& group, const std::vector<ElGamalCiphertext>& row) {
  Writer w;
  Encoder e(w);
  RowFields(e, group, const_cast<std::vector<ElGamalCiphertext>&>(row), row.size());
  return w.Take();
}

std::optional<std::vector<ElGamalCiphertext>> ParseCiphertextRow(const Group& group,
                                                                 const Bytes& data,
                                                                 size_t expected_width) {
  Reader r(data);
  Decoder d(r);
  std::vector<ElGamalCiphertext> row;
  if (!RowFields(d, group, row, expected_width) || !r.AtEnd()) {
    return std::nullopt;
  }
  return row;
}

Bytes SerializeMixStep(const Group& group, const MixStep& step) { return Encode(step, group); }

std::optional<MixStep> ParseMixStep(const Group& group, const Bytes& data) {
  return Decode<MixStep>(data, group);
}

}  // namespace dissent
