// SHA-256 against NIST/FIPS examples, HMAC-SHA256 against RFC 4231 vectors,
// digest/keystore/signature behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/digest.h"
#include "crypto/hmac_sha256.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "util/hex.h"

namespace seemore {
namespace {

std::string HashHex(const std::string& input) {
  auto digest = Sha256::Hash(input);
  return HexEncode(digest.data(), digest.size());
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  uint8_t out[Sha256::kDigestSize];
  h.Final(out);
  EXPECT_EQ(HexEncode(out, sizeof(out)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly and "
      "deterministically, across block boundaries of all sizes.";
  auto oneshot = Sha256::Hash(data);
  for (size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    uint8_t out[Sha256::kDigestSize];
    h.Final(out);
    EXPECT_EQ(0, memcmp(out, oneshot.data(), sizeof(out))) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte input exercises the padding-to-second-block path.
  std::string input(64, 'x');
  EXPECT_EQ(HashHex(input),
            HashHex(std::string(32, 'x') + std::string(32, 'x')));
  // 55 and 56 bytes straddle the length-field boundary.
  EXPECT_NE(HashHex(std::string(55, 'y')), HashHex(std::string(56, 'y')));
}

// --- SIMD kernel dispatch (sha256.h Impl hook) ---

// Every kernel the CPU supports, portable always included.
std::vector<Sha256::Impl> SupportedImpls() {
  std::vector<Sha256::Impl> impls = {Sha256::Impl::kPortable};
  if (Sha256::ImplSupported(Sha256::Impl::kAvx2)) {
    impls.push_back(Sha256::Impl::kAvx2);
  }
  if (Sha256::ImplSupported(Sha256::Impl::kShaNi)) {
    impls.push_back(Sha256::Impl::kShaNi);
  }
  return impls;
}

// Restores auto-detected dispatch even if a test fails mid-way.
struct ImplGuard {
  ~ImplGuard() { Sha256::ResetImpl(); }
};

TEST(Sha256DispatchTest, ForceImplRoundTrip) {
  ImplGuard guard;
  for (Sha256::Impl impl : SupportedImpls()) {
    ASSERT_TRUE(Sha256::ForceImpl(impl));
    EXPECT_EQ(Sha256::ActiveImpl(), impl);
  }
  Sha256::ResetImpl();
  // Auto-detection picks a supported kernel.
  EXPECT_TRUE(Sha256::ImplSupported(Sha256::ActiveImpl()));
}

TEST(Sha256DispatchTest, UnsupportedImplRefused) {
  // On a machine without SHA-NI, forcing it must fail and leave dispatch
  // unchanged. (On capable machines this test is vacuous for kShaNi.)
  ImplGuard guard;
  Sha256::Impl before = Sha256::ActiveImpl();
  if (!Sha256::ImplSupported(Sha256::Impl::kShaNi)) {
    EXPECT_FALSE(Sha256::ForceImpl(Sha256::Impl::kShaNi));
    EXPECT_EQ(Sha256::ActiveImpl(), before);
  }
}

// NIST vectors must pass under every kernel, not just the default one.
TEST(Sha256DispatchTest, NistVectorsUnderEveryImpl) {
  ImplGuard guard;
  for (Sha256::Impl impl : SupportedImpls()) {
    ASSERT_TRUE(Sha256::ForceImpl(impl));
    EXPECT_EQ(HashHex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(HashHex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(
        HashHex(
            "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
            "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  }
}

// Cross-check all kernels agree on random inputs of every length class:
// empty, sub-block, exact block boundaries, straddling lengths, and
// multi-block (the multi-block kernel loop is its own code path).
TEST(Sha256DispatchTest, ImplsAgreeOnEveryLengthClass) {
  ImplGuard guard;
  const std::vector<Sha256::Impl> impls = SupportedImpls();
  std::vector<size_t> lengths = {0,  1,  31,  55,  56,  63,  64,
                                 65, 119, 127, 128, 129, 192, 1000};
  uint64_t rng = 0x9e3779b97f4a7c15ULL;  // fixed seed: deterministic inputs
  for (size_t len : lengths) {
    std::vector<uint8_t> input(len);
    for (auto& b : input) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      b = static_cast<uint8_t>(rng >> 56);
    }
    ASSERT_TRUE(Sha256::ForceImpl(Sha256::Impl::kPortable));
    auto expected = Sha256::Hash(input);
    for (Sha256::Impl impl : impls) {
      ASSERT_TRUE(Sha256::ForceImpl(impl));
      // One-shot and incremental (odd-sized chunks cross block boundaries).
      EXPECT_EQ(Sha256::Hash(input), expected)
          << "len=" << len << " impl=" << static_cast<int>(impl);
      Sha256 h;
      for (size_t off = 0; off < len; off += 37) {
        h.Update(input.data() + off, std::min<size_t>(37, len - off));
      }
      std::array<uint8_t, Sha256::kDigestSize> out;
      h.Final(out.data());
      EXPECT_EQ(out, expected)
          << "len=" << len << " impl=" << static_cast<int>(impl);
    }
  }
}

// RFC 4231 test case 1.
TEST(HmacSha256Test, Rfc4231Case1) {
  std::vector<uint8_t> key(20, 0x0b);
  std::string data = "Hi There";
  auto tag = HmacSha256::Mac(key.data(), key.size(),
                             reinterpret_cast<const uint8_t*>(data.data()),
                             data.size());
  EXPECT_EQ(HexEncode(tag.data(), tag.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256Test, Rfc4231Case2) {
  std::string key = "Jefe";
  std::string data = "what do ya want for nothing?";
  auto tag = HmacSha256::Mac(reinterpret_cast<const uint8_t*>(key.data()),
                             key.size(),
                             reinterpret_cast<const uint8_t*>(data.data()),
                             data.size());
  EXPECT_EQ(HexEncode(tag.data(), tag.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3 (0xaa key, 0xdd data).
TEST(HmacSha256Test, Rfc4231Case3) {
  std::vector<uint8_t> key(20, 0xaa);
  std::vector<uint8_t> data(50, 0xdd);
  auto tag = HmacSha256::Mac(key, data);
  EXPECT_EQ(HexEncode(tag.data(), tag.size()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(HmacSha256Test, Rfc4231Case6LongKey) {
  std::vector<uint8_t> key(131, 0xaa);
  std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  auto tag = HmacSha256::Mac(key.data(), key.size(),
                             reinterpret_cast<const uint8_t*>(data.data()),
                             data.size());
  EXPECT_EQ(HexEncode(tag.data(), tag.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256Test, ConstantTimeEqual) {
  uint8_t a[4] = {1, 2, 3, 4};
  uint8_t b[4] = {1, 2, 3, 4};
  uint8_t c[4] = {1, 2, 3, 5};
  EXPECT_TRUE(HmacSha256::Equal(a, b, 4));
  EXPECT_FALSE(HmacSha256::Equal(a, c, 4));
}

TEST(DigestTest, RoundTripAndComparison) {
  Digest a = Digest::Of(std::string("hello"));
  Digest b = Digest::Of(std::string("hello"));
  Digest c = Digest::Of(std::string("world"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_FALSE(a.IsZero());
  EXPECT_TRUE(Digest().IsZero());

  Encoder enc;
  a.EncodeTo(enc);
  Decoder dec(enc.bytes());
  Digest decoded = Digest::DecodeFrom(dec);
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(a, decoded);
  EXPECT_EQ(a.ToHex().size(), 64u);
  EXPECT_EQ(a.ShortHex(), a.ToHex().substr(0, 8));
}

TEST(KeyStoreTest, SignVerifyRoundTrip) {
  KeyStore store(42);
  Signer alice(3, store);
  Bytes msg = {1, 2, 3, 4, 5};
  Signature sig = alice.Sign(msg);
  EXPECT_TRUE(store.Verify(3, msg, sig));
  EXPECT_FALSE(store.Verify(4, msg, sig));  // wrong principal
  Bytes altered = msg;
  altered[0] ^= 1;
  EXPECT_FALSE(store.Verify(3, altered, sig));
}

TEST(KeyStoreTest, TwoSpanSignatureEqualsTheJoinedMessage) {
  // Streaming a message as head + tail must MAC exactly the concatenation,
  // at every split point (block-internal, block boundary, empty tail).
  KeyStore store(42);
  Signer alice(3, store);
  Bytes msg(200);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i * 7);
  const Signature joined = alice.Sign(msg);
  for (size_t split = 0; split <= msg.size(); ++split) {
    const Signature sig = alice.Sign(msg.data(), split, msg.data() + split,
                                     msg.size() - split);
    EXPECT_EQ(sig, joined) << "split " << split;
    EXPECT_TRUE(store.Verify(3, msg.data(), split, msg.data() + split,
                             msg.size() - split, joined))
        << "split " << split;
  }
  EXPECT_FALSE(store.Verify(4, msg.data(), 10, msg.data() + 10,
                            msg.size() - 10, joined));  // wrong principal
  Bytes altered = msg;
  altered.back() ^= 1;
  EXPECT_FALSE(store.Verify(3, altered.data(), 10, altered.data() + 10,
                            altered.size() - 10, joined));
}

TEST(KeyStoreTest, AdversaryCannotForge) {
  KeyStore store(42);
  Signer byzantine(7, store);
  Bytes msg = {9, 9, 9};
  // The Byzantine node can only produce ITS OWN signatures; they never
  // verify as another principal's (§3.1 adversary model).
  Signature forged = byzantine.Sign(msg);
  for (PrincipalId victim = 0; victim < 6; ++victim) {
    EXPECT_FALSE(store.Verify(victim, msg, forged));
  }
}

TEST(KeyStoreTest, DistinctSeedsDistinctKeys) {
  KeyStore a(1), b(2);
  Signer signer_a(0, a);
  Bytes msg = {1};
  EXPECT_FALSE(b.Verify(0, msg, signer_a.Sign(msg)));
}

TEST(SignatureTest, EncodeDecode) {
  KeyStore store(5);
  Signer signer(1, store);
  Signature sig = signer.Sign(Bytes{1, 2, 3});
  Encoder enc;
  sig.EncodeTo(enc);
  Decoder dec(enc.bytes());
  Signature decoded = Signature::DecodeFrom(dec);
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_TRUE(sig == decoded);
}

}  // namespace
}  // namespace seemore
