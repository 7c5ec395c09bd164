#ifndef PRIMELABEL_CORE_CRT_H_
#define PRIMELABEL_CORE_CRT_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "util/status.h"

namespace primelabel {

/// One congruence x = remainder (mod modulus), modulus >= 2.
struct Congruence {
  std::uint64_t modulus;
  std::uint64_t remainder;
};

/// Solves a system of simultaneous congruences with pairwise-coprime moduli
/// (Theorem 1). Returns the unique solution in [0, prod(moduli)).
/// Fails with kInvalidArgument when the moduli are not pairwise coprime or
/// a remainder is not below its modulus.
///
/// Construction: x = sum_i (C/m_i) * inv(C/m_i mod m_i) * n_i mod C — the
/// classical CRT; equivalent to the paper's Euler-quotient form because
/// a^(phi(m)-1) = a^{-1} (mod m) for gcd(a, m) = 1.
Result<BigInt> SolveCrt(const std::vector<Congruence>& congruences);

/// The production solver (every SC value goes through it): Garner's
/// mixed-radix recurrence. With x solving the first i congruences and P
/// their moduli's product, the next one adds P * t, where
/// t = (r_i - x mod m_i) * (P mod m_i)^-1 mod m_i is word arithmetic: two
/// BigInt::ModU64 reductions, a u64 extended Euclid and one 128-bit
/// product. It needs no up-front gcd pass: P mod m_i has no inverse
/// exactly when m_i shares a factor with an earlier modulus. Bit-identical
/// to SolveCrt (both return the unique solution in [0, C)), with the same
/// preconditions and the same kInvalidArgument errors.
Result<BigInt> SolveCrtFast(const std::vector<Congruence>& congruences);

/// The paper's own construction via Euler's totient:
/// x = sum_i (C/m_i)^phi(m_i) * n_i mod C. Provided for fidelity and used
/// by tests to cross-check SolveCrt. Same preconditions.
Result<BigInt> SolveCrtEuler(const std::vector<Congruence>& congruences);

/// Euler's totient function phi(n) for n >= 1, by trial-division
/// factorization (moduli here are node self-labels: small primes or prime
/// powers, so this is cheap).
std::uint64_t EulerTotientU64(std::uint64_t n);

}  // namespace primelabel

#endif  // PRIMELABEL_CORE_CRT_H_
