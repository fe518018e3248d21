#include "auth.hh"

#include <cstdio>
#include <stdexcept>

#include "util/byte_codec.hh"
#include "util/env.hh"

namespace react {
namespace net {

namespace {

/** Domain-separation prefix for the handshake MAC (see auth.hh). */
constexpr char kAuthContext[] = "RNETAUTH1";
constexpr size_t kAuthContextSize = sizeof(kAuthContext) - 1;

} // namespace

AuthMac
authProof(const std::vector<uint8_t> &key, const AuthNonce &nonce)
{
    std::vector<uint8_t> message(kAuthContextSize + nonce.size());
    for (size_t i = 0; i < kAuthContextSize; ++i)
        message[i] = static_cast<uint8_t>(kAuthContext[i]);
    for (size_t i = 0; i < nonce.size(); ++i)
        message[kAuthContextSize + i] = nonce[i];
    return hmacSha256(key.data(), key.size(), message.data(),
                      message.size());
}

bool
verifyAuthProof(const std::vector<uint8_t> &key, const AuthNonce &nonce,
                const uint8_t *mac, size_t mac_size)
{
    const AuthMac expected = authProof(key, nonce);
    return constantTimeEqual(expected.data(), expected.size(), mac,
                             mac_size);
}

AuthNonce
NonceSource::next()
{
    AuthNonce nonce;
    for (size_t word = 0; word < nonce.size() / 8; ++word)
        storeLe64(nonce.data() + word * 8, rng_.next());
    return nonce;
}

std::optional<std::vector<uint8_t>>
loadFleetKey()
{
    if (const std::optional<std::string> literal =
            env::stringVar("REACT_FLEET_KEY")) {
        return std::vector<uint8_t>(literal->begin(), literal->end());
    }
    const std::optional<std::string> file =
        env::stringVar("REACT_FLEET_KEY_FILE");
    if (!file)
        return std::nullopt;
    std::FILE *fp = std::fopen(file->c_str(), "rb");
    if (fp == nullptr)
        throw std::runtime_error("REACT_FLEET_KEY_FILE: cannot open '" +
                                 *file + "'");
    std::vector<uint8_t> key;
    uint8_t chunk[256];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), fp)) > 0)
        key.insert(key.end(), chunk, chunk + n);
    const bool read_error = std::ferror(fp) != 0;
    std::fclose(fp);
    if (read_error)
        throw std::runtime_error("REACT_FLEET_KEY_FILE: read error on '" +
                                 *file + "'");
    if (!key.empty() && key.back() == '\n')
        key.pop_back();
    if (key.empty())
        throw std::runtime_error("REACT_FLEET_KEY_FILE: '" + *file +
                                 "' holds no key bytes");
    return key;
}

} // namespace net
} // namespace react
