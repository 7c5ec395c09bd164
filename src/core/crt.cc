#include "core/crt.h"

#include <numeric>
#include <optional>

namespace primelabel {

namespace {

/// The checks every solver makes: a nonempty system, each modulus >= 2
/// and each remainder below its modulus.
Status ValidateCongruences(const std::vector<Congruence>& congruences) {
  if (congruences.empty()) {
    return Status::InvalidArgument("empty congruence system");
  }
  for (const Congruence& c : congruences) {
    if (c.modulus < 2) {
      return Status::InvalidArgument("modulus must be >= 2");
    }
    if (c.remainder >= c.modulus) {
      return Status::InvalidArgument("remainder must be below its modulus");
    }
  }
  return Status::Ok();
}

Status NotCoprime() {
  return Status::InvalidArgument("moduli are not pairwise coprime");
}

/// ValidateCongruences plus the pairwise gcd pass the reference solvers
/// need up front; SolveCrtFast finds a shared factor as a missing inverse.
Status ValidateSystem(const std::vector<Congruence>& congruences) {
  Status valid = ValidateCongruences(congruences);
  if (!valid.ok()) return valid;
  for (std::size_t i = 0; i < congruences.size(); ++i) {
    for (std::size_t j = i + 1; j < congruences.size(); ++j) {
      if (std::gcd(congruences[i].modulus, congruences[j].modulus) != 1) {
        return NotCoprime();
      }
    }
  }
  return Status::Ok();
}

BigInt ProductOfModuli(const std::vector<Congruence>& congruences) {
  BigInt product(1);
  for (const Congruence& c : congruences) {
    product *= BigInt::FromUint64(c.modulus);
  }
  return product;
}

/// a^{-1} mod m by the extended Euclid in 128-bit signed arithmetic
/// (m >= 2); nullopt when gcd(a, m) != 1, so no inverse exists.
std::optional<std::uint64_t> InverseModU64(std::uint64_t a, std::uint64_t m) {
  __int128 t = 0;
  __int128 next_t = 1;
  std::uint64_t r = m;
  std::uint64_t next_r = a % m;
  while (next_r != 0) {
    std::uint64_t q = r / next_r;
    __int128 tmp_t = t - static_cast<__int128>(q) * next_t;
    t = next_t;
    next_t = tmp_t;
    std::uint64_t tmp_r = r - q * next_r;
    r = next_r;
    next_r = tmp_r;
  }
  if (r != 1) return std::nullopt;
  if (t < 0) t += m;
  return static_cast<std::uint64_t>(t);
}

}  // namespace

Result<BigInt> SolveCrt(const std::vector<Congruence>& congruences) {
  Status valid = ValidateSystem(congruences);
  if (!valid.ok()) return valid;
  const BigInt product = ProductOfModuli(congruences);
  BigInt solution(0);
  for (const Congruence& c : congruences) {
    const BigInt modulus = BigInt::FromUint64(c.modulus);
    const BigInt partial = product / modulus;  // C / m_i
    Result<BigInt> inverse = BigInt::ModInverse(partial % modulus, modulus);
    PL_CHECK(inverse.ok());  // guaranteed by pairwise coprimality
    solution += partial * inverse.value() * BigInt::FromUint64(c.remainder);
  }
  return solution.EuclideanMod(product);
}

Result<BigInt> SolveCrtFast(const std::vector<Congruence>& congruences) {
  Status valid = ValidateCongruences(congruences);
  if (!valid.ok()) return valid;

  // Garner's recurrence: x solves the congruences seen so far and lies in
  // [0, P), P their moduli's product. The next one, x' = r (mod m), is
  // met by x' = x + P * t with t = (r - x) * P^-1 mod m, and x' < P * m.
  BigInt x = BigInt::FromUint64(congruences[0].remainder);
  BigInt product = BigInt::FromUint64(congruences[0].modulus);
  for (std::size_t i = 1; i < congruences.size(); ++i) {
    const std::uint64_t m = congruences[i].modulus;
    const std::uint64_t r = congruences[i].remainder;
    // P mod m is a unit exactly when m is coprime to every earlier modulus.
    const std::optional<std::uint64_t> inverse =
        InverseModU64(product.ModU64(m), m);
    if (!inverse) return NotCoprime();
    const std::uint64_t x_mod = x.ModU64(m);
    const std::uint64_t diff = r >= x_mod ? r - x_mod : m - (x_mod - r);
    const std::uint64_t t = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(diff) * *inverse % m);
    x += product * BigInt::FromUint64(t);
    product *= BigInt::FromUint64(m);
  }
  return x;
}

Result<BigInt> SolveCrtEuler(const std::vector<Congruence>& congruences) {
  Status valid = ValidateSystem(congruences);
  if (!valid.ok()) return valid;
  const BigInt product = ProductOfModuli(congruences);
  BigInt solution(0);
  for (const Congruence& c : congruences) {
    const BigInt modulus = BigInt::FromUint64(c.modulus);
    const BigInt partial = product / modulus;  // C / m_i
    // (C/m_i)^phi(m_i) = 1 (mod m_i) and = 0 (mod m_j), j != i.
    const BigInt phi =
        BigInt::FromUint64(EulerTotientU64(c.modulus));
    solution += BigInt::PowMod(partial, phi, product) *
                BigInt::FromUint64(c.remainder);
  }
  return solution.EuclideanMod(product);
}

std::uint64_t EulerTotientU64(std::uint64_t n) {
  PL_CHECK(n >= 1);
  std::uint64_t result = n;
  std::uint64_t remaining = n;
  for (std::uint64_t p = 2; p * p <= remaining; ++p) {
    if (remaining % p != 0) continue;
    while (remaining % p == 0) remaining /= p;
    result -= result / p;
  }
  if (remaining > 1) result -= result / remaining;
  return result;
}

}  // namespace primelabel
