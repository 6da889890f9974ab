//===- nn/SimdAvx2.cpp - AVX2/FMA/F16C kernel table ---------------------------===//
//
// This translation unit — and only this one — is compiled with
// -mavx2 -mfma -mf16c (see nn/CMakeLists.txt). Nothing here may be called
// unless the runtime probe in Simd.cpp confirmed the CPU has all three.
//
// Determinism: every kernel computes each element with a fixed operation
// sequence for a given N. Remainder lanes mirror the vector lanes — fmaf
// where the lanes use vfmadd, the same exp polynomial evaluated scalar —
// so results do not depend on where parallel chunk boundaries fall.
//
//===----------------------------------------------------------------------===//

#include "nn/Simd.h"

#ifdef TYPILUS_SIMD_AVX2

#include "support/Float16.h"

#include <cmath>
#include <cstring>
#include <immintrin.h>
#include <vector>

using namespace typilus;
using namespace typilus::nn;

namespace {

inline float hsum(__m256 V) {
  __m128 Lo = _mm_add_ps(_mm256_castps256_ps128(V),
                         _mm256_extractf128_ps(V, 1));
  Lo = _mm_add_ps(Lo, _mm_movehl_ps(Lo, Lo));
  Lo = _mm_add_ss(Lo, _mm_shuffle_ps(Lo, Lo, 1));
  return _mm_cvtss_f32(Lo);
}

inline float hmax(__m256 V) {
  __m128 Lo = _mm_max_ps(_mm256_castps256_ps128(V),
                         _mm256_extractf128_ps(V, 1));
  Lo = _mm_max_ps(Lo, _mm_movehl_ps(Lo, Lo));
  Lo = _mm_max_ss(Lo, _mm_shuffle_ps(Lo, Lo, 1));
  return _mm_cvtss_f32(Lo);
}

//===----------------------------------------------------------------------===//
// exp: Cephes-style polynomial, vector and scalar-mirror forms
//===----------------------------------------------------------------------===//

// Constants of the classic single-precision expf reduction
// (exp(x) = 2^n * exp(r), |r| <= ln2/2; 6th-order polynomial for exp(r)).
constexpr float ExpHi = 88.3762626647949f;
constexpr float ExpLo = -88.3762626647949f;
constexpr float Log2E = 1.44269504088896341f;
constexpr float ExpC1 = 0.693359375f;
constexpr float ExpC2 = -2.12194440e-4f;
constexpr float ExpP0 = 1.9875691500e-4f;
constexpr float ExpP1 = 1.3981999507e-3f;
constexpr float ExpP2 = 8.3334519073e-3f;
constexpr float ExpP3 = 4.1665795894e-2f;
constexpr float ExpP4 = 1.6666665459e-1f;
constexpr float ExpP5 = 5.0000001201e-1f;

inline __m256 expV(__m256 X) {
  X = _mm256_min_ps(_mm256_max_ps(X, _mm256_set1_ps(ExpLo)),
                    _mm256_set1_ps(ExpHi));
  __m256 Fx = _mm256_floor_ps(
      _mm256_fmadd_ps(X, _mm256_set1_ps(Log2E), _mm256_set1_ps(0.5f)));
  X = _mm256_fnmadd_ps(Fx, _mm256_set1_ps(ExpC1), X);
  X = _mm256_fnmadd_ps(Fx, _mm256_set1_ps(ExpC2), X);
  __m256 Z = _mm256_mul_ps(X, X);
  __m256 Y = _mm256_set1_ps(ExpP0);
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP1));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP2));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP3));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP4));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(ExpP5));
  Y = _mm256_fmadd_ps(Y, Z, _mm256_add_ps(X, _mm256_set1_ps(1.f)));
  __m256i N = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(Fx), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(Y, _mm256_castsi256_ps(N));
}

/// Scalar mirror of expV: identical operation sequence per element, so a
/// remainder lane produces the same bits a vector lane would have.
inline float expS(float X) {
  X = std::min(std::max(X, ExpLo), ExpHi);
  float Fx = std::floor(std::fmaf(X, Log2E, 0.5f));
  X = std::fmaf(-Fx, ExpC1, X);
  X = std::fmaf(-Fx, ExpC2, X);
  float Z = X * X;
  float Y = ExpP0;
  Y = std::fmaf(Y, X, ExpP1);
  Y = std::fmaf(Y, X, ExpP2);
  Y = std::fmaf(Y, X, ExpP3);
  Y = std::fmaf(Y, X, ExpP4);
  Y = std::fmaf(Y, X, ExpP5);
  Y = std::fmaf(Y, Z, X + 1.f);
  uint32_t Bits = static_cast<uint32_t>(static_cast<int32_t>(Fx) + 127) << 23;
  float Pow;
  std::memcpy(&Pow, &Bits, sizeof(Pow));
  return Y * Pow;
}

//===----------------------------------------------------------------------===//
// GEMM building blocks
//===----------------------------------------------------------------------===//

void axpyRow(float *Dst, float A, const float *X, int64_t N) {
  __m256 VA = _mm256_set1_ps(A);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_fmadd_ps(VA, _mm256_loadu_ps(X + I),
                                              _mm256_loadu_ps(Dst + I)));
  for (; I != N; ++I)
    Dst[I] = std::fmaf(A, X[I], Dst[I]);
}

float dot(const float *A, const float *B, int64_t N) {
  __m256 Acc0 = _mm256_setzero_ps();
  __m256 Acc1 = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 16 <= N; I += 16) {
    Acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I),
                           Acc0);
    Acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I + 8),
                           _mm256_loadu_ps(B + I + 8), Acc1);
  }
  for (; I + 8 <= N; I += 8)
    Acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I),
                           Acc0);
  float Sum = hsum(_mm256_add_ps(Acc0, Acc1));
  for (; I != N; ++I)
    Sum = std::fmaf(A[I], B[I], Sum);
  return Sum;
}

/// Lanes [0, Cols) of a maskload/maskstore mask; Cols in [1, 8].
inline __m256i laneMask(int64_t Cols) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(Cols)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One R x (8 * V) tile of C held in registers across all of K. Each
/// element runs axpyRow's sequence — AIP = Alpha * a, skipped when zero,
/// then c = fma(AIP, b, c) for p ascending — so the tile is bit-identical
/// to gemmRowOverAxpy<axpyRow>. With \p Masked the last vector covers
/// only the \p Tail lanes (masked-off lanes are never stored).
template <int R, int V, bool Masked>
void gemmTile(float *C, int64_t N, int64_t K, float Alpha, const float *A,
              int64_t ARowStride, int64_t AColStride, const float *B,
              int64_t Ldb, __m256i Tail) {
  // The fixed-trip loops are unrolled so Acc and BV stay in registers.
  auto Load = [Tail](const float *P, int Vi) {
    return Masked && Vi == V - 1 ? _mm256_maskload_ps(P, Tail)
                                 : _mm256_loadu_ps(P);
  };
  __m256 Acc[R][V];
#pragma GCC unroll 4
  for (int Ri = 0; Ri != R; ++Ri)
#pragma GCC unroll 4
    for (int Vi = 0; Vi != V; ++Vi)
      Acc[Ri][Vi] = Load(C + Ri * N + 8 * Vi, Vi);
  for (int64_t P = 0; P != K; ++P) {
    __m256 BV[V];
#pragma GCC unroll 4
    for (int Vi = 0; Vi != V; ++Vi)
      BV[Vi] = Load(B + P * Ldb + 8 * Vi, Vi);
#pragma GCC unroll 4
    for (int Ri = 0; Ri != R; ++Ri) {
      float AIP = Alpha * A[Ri * ARowStride + P * AColStride];
      if (AIP == 0.f)
        continue;
      __m256 VA = _mm256_set1_ps(AIP);
#pragma GCC unroll 4
      for (int Vi = 0; Vi != V; ++Vi)
        Acc[Ri][Vi] = _mm256_fmadd_ps(VA, BV[Vi], Acc[Ri][Vi]);
    }
  }
#pragma GCC unroll 4
  for (int Ri = 0; Ri != R; ++Ri)
#pragma GCC unroll 4
    for (int Vi = 0; Vi != V; ++Vi) {
      float *Dst = C + Ri * N + 8 * Vi;
      if (Masked && Vi == V - 1)
        _mm256_maskstore_ps(Dst, Tail, Acc[Ri][Vi]);
      else
        _mm256_storeu_ps(Dst, Acc[Ri][Vi]);
    }
}

/// R rows of C: 32-column tiles, then one masked tile for the rest.
template <int R>
void gemmRowBlock(float *C, int64_t N, int64_t K, float Alpha, const float *A,
                  int64_t ARowStride, int64_t AColStride, const float *B,
                  int64_t Ldb) {
  int64_t J = 0;
  for (; J + 32 <= N; J += 32)
    gemmTile<R, 4, false>(C + J, N, K, Alpha, A, ARowStride, AColStride,
                          B + J, Ldb, __m256i());
  int64_t Rem = N - J;
  if (Rem == 0)
    return;
  __m256i Tail = laneMask((Rem - 1) % 8 + 1); // lanes of the last vector
  switch ((Rem + 7) / 8) {
  case 1:
    return gemmTile<R, 1, true>(C + J, N, K, Alpha, A, ARowStride, AColStride,
                                B + J, Ldb, Tail);
  case 2:
    return gemmTile<R, 2, true>(C + J, N, K, Alpha, A, ARowStride, AColStride,
                                B + J, Ldb, Tail);
  case 3:
    return gemmTile<R, 3, true>(C + J, N, K, Alpha, A, ARowStride, AColStride,
                                B + J, Ldb, Tail);
  default:
    return gemmTile<R, 4, true>(C + J, N, K, Alpha, A, ARowStride, AColStride,
                                B + J, Ldb, Tail);
  }
}

/// Rows are blocked in pairs: two rows share every B load and give eight
/// independent FMA chains, which covers the FMA latency a single row's
/// four chains leave exposed.
void gemmRow(float *C, int64_t Rows, int64_t N, int64_t K, float Alpha,
             const float *A, int64_t ARowStride, int64_t AColStride,
             const float *B, int64_t Ldb) {
  int64_t R = 0;
  for (; R + 2 <= Rows; R += 2)
    gemmRowBlock<2>(C + R * N, N, K, Alpha, A + R * ARowStride, ARowStride,
                    AColStride, B, Ldb);
  if (R != Rows)
    gemmRowBlock<1>(C + R * N, N, K, Alpha, A + R * ARowStride, ARowStride,
                    AColStride, B, Ldb);
}

// The transposed-B GEMM, GemmDotRow: dot()'s exact sequence for eight
// output columns at once, with only vertical operations. B is copied
// transposed (Bt row p holds B[j * Ldb + p] for every j, zero-padded to a
// multiple of 8 columns), so lane c of a Bt load belongs to output column
// j + c and one broadcast A element feeds eight dot products.
//
// Per output element this is dot() verbatim: lane l of dot()'s Acc0 and
// Acc1 (p = l mod 16 and l + 8 mod 16 over the 16-float chunks, one
// 8-float chunk into Acc0) becomes a pair of accumulators here; hsum's
// tree ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)) over s = Acc0 + Acc1 is
// spelled out with the same operand order; the tail is the same fmaf
// chain; and the result is scaled by Alpha and added to C unfused, like
// gemmDotRowOverDot<dot>.

/// s_Lane = (Acc0 + Acc1)[Lane] of dot() for R rows of A and the eight
/// output columns whose transposed B starts at \p BtJ. Always inlined so
/// the accumulators stay in registers.
template <int R>
__attribute__((always_inline)) inline void
laneSum(__m256 (&S)[R], int Lane, const float *A, int64_t Lda,
        const float *BtJ, int64_t Ldt, int64_t K16, bool Has8) {
  __m256 Acc0[R], Acc1[R];
#pragma GCC unroll 4
  for (int Ri = 0; Ri != R; ++Ri)
    Acc0[Ri] = Acc1[Ri] = _mm256_setzero_ps();
  for (int64_t P = 0; P != K16; P += 16) {
    __m256 B0 = _mm256_loadu_ps(BtJ + (P + Lane) * Ldt);
    __m256 B1 = _mm256_loadu_ps(BtJ + (P + 8 + Lane) * Ldt);
#pragma GCC unroll 4
    for (int Ri = 0; Ri != R; ++Ri) {
      const float *ARow = A + Ri * Lda + P + Lane;
      Acc0[Ri] = _mm256_fmadd_ps(_mm256_set1_ps(ARow[0]), B0, Acc0[Ri]);
      Acc1[Ri] = _mm256_fmadd_ps(_mm256_set1_ps(ARow[8]), B1, Acc1[Ri]);
    }
  }
  if (Has8) {
    __m256 B0 = _mm256_loadu_ps(BtJ + (K16 + Lane) * Ldt);
#pragma GCC unroll 4
    for (int Ri = 0; Ri != R; ++Ri)
      Acc0[Ri] = _mm256_fmadd_ps(_mm256_set1_ps(A[Ri * Lda + K16 + Lane]),
                                 B0, Acc0[Ri]);
  }
#pragma GCC unroll 4
  for (int Ri = 0; Ri != R; ++Ri)
    S[Ri] = _mm256_add_ps(Acc0[Ri], Acc1[Ri]);
}

/// R rows of C, all N columns, eight at a time (masked at the end).
template <int R>
void gemmDotBlock(float *C, int64_t N, int64_t K, float Alpha, const float *A,
                  int64_t Lda, const float *Bt, int64_t Ldt) {
  const int64_t K16 = K / 16 * 16;
  const bool Has8 = K - K16 >= 8;
  const int64_t KTail = Has8 ? K16 + 8 : K16;
  const __m256 VAlpha = _mm256_set1_ps(Alpha);
  for (int64_t J = 0; J < N; J += 8) {
    const float *BtJ = Bt + J;
    // hsum's tree: U = (s0+s4)+(s2+s6), V = (s1+s5)+(s3+s7), Sum = U+V.
    __m256 U[R], V[R], S0[R], S1[R];
    laneSum<R>(S0, 0, A, Lda, BtJ, Ldt, K16, Has8);
    laneSum<R>(S1, 4, A, Lda, BtJ, Ldt, K16, Has8);
#pragma GCC unroll 4
    for (int Ri = 0; Ri != R; ++Ri)
      U[Ri] = _mm256_add_ps(S0[Ri], S1[Ri]);
    laneSum<R>(S0, 2, A, Lda, BtJ, Ldt, K16, Has8);
    laneSum<R>(S1, 6, A, Lda, BtJ, Ldt, K16, Has8);
#pragma GCC unroll 4
    for (int Ri = 0; Ri != R; ++Ri)
      U[Ri] = _mm256_add_ps(U[Ri], _mm256_add_ps(S0[Ri], S1[Ri]));
    laneSum<R>(S0, 1, A, Lda, BtJ, Ldt, K16, Has8);
    laneSum<R>(S1, 5, A, Lda, BtJ, Ldt, K16, Has8);
#pragma GCC unroll 4
    for (int Ri = 0; Ri != R; ++Ri)
      V[Ri] = _mm256_add_ps(S0[Ri], S1[Ri]);
    laneSum<R>(S0, 3, A, Lda, BtJ, Ldt, K16, Has8);
    laneSum<R>(S1, 7, A, Lda, BtJ, Ldt, K16, Has8);
#pragma GCC unroll 4
    for (int Ri = 0; Ri != R; ++Ri)
      V[Ri] = _mm256_add_ps(V[Ri], _mm256_add_ps(S0[Ri], S1[Ri]));
    const bool Full = J + 8 <= N;
    const __m256i Tail = Full ? __m256i() : laneMask(N - J);
#pragma GCC unroll 4
    for (int Ri = 0; Ri != R; ++Ri) {
      __m256 Sum = _mm256_add_ps(U[Ri], V[Ri]);
      for (int64_t P = KTail; P != K; ++P)
        Sum = _mm256_fmadd_ps(_mm256_set1_ps(A[Ri * Lda + P]),
                              _mm256_loadu_ps(BtJ + P * Ldt), Sum);
      float *Dst = C + Ri * N + J;
      __m256 Prod = _mm256_mul_ps(VAlpha, Sum);
      if (Full)
        _mm256_storeu_ps(Dst, _mm256_add_ps(_mm256_loadu_ps(Dst), Prod));
      else
        _mm256_maskstore_ps(
            Dst, Tail, _mm256_add_ps(_mm256_maskload_ps(Dst, Tail), Prod));
    }
  }
}

void gemmDotRow(float *C, int64_t Rows, int64_t N, int64_t K, float Alpha,
                const float *A, int64_t Lda, const float *B, int64_t Ldb) {
  if (Rows == 0 || N == 0)
    return;
  // The transposed copy is made once per call (one parallel chunk of
  // rows); its buffer is reused across calls on the same thread. Rows are
  // blocked in pairs that share every Bt load.
  thread_local std::vector<float> Bt;
  const int64_t Ldt = (N + 7) / 8 * 8;
  Bt.assign(static_cast<size_t>(K * Ldt), 0.f);
  for (int64_t J = 0; J != N; ++J)
    for (int64_t P = 0; P != K; ++P)
      Bt[static_cast<size_t>(P * Ldt + J)] = B[J * Ldb + P];
  int64_t R = 0;
  for (; R + 2 <= Rows; R += 2)
    gemmDotBlock<2>(C + R * N, N, K, Alpha, A + R * Lda, Lda, Bt.data(), Ldt);
  if (R != Rows)
    gemmDotBlock<1>(C + R * N, N, K, Alpha, A + R * Lda, Lda, Bt.data(), Ldt);
}

//===----------------------------------------------------------------------===//
// L1 distance against the three marker encodings
//===----------------------------------------------------------------------===//

void l1Step(__m256 &Acc, __m256 Q, __m256 R) {
  const __m256 SignMask = _mm256_set1_ps(-0.0f);
  Acc = _mm256_add_ps(Acc, _mm256_andnot_ps(SignMask, _mm256_sub_ps(Q, R)));
}

float l1(const float *A, const float *B, int64_t N) {
  __m256 Acc = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    l1Step(Acc, _mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I));
  float Sum = hsum(Acc);
  for (; I != N; ++I)
    Sum += std::fabs(A[I] - B[I]);
  return Sum;
}

float l1F16(const float *Q, const uint16_t *Row, int64_t N) {
  __m256 Acc = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 R = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Row + I)));
    l1Step(Acc, _mm256_loadu_ps(Q + I), R);
  }
  float Sum = hsum(Acc);
  // vcvtph2ps and the software decoder agree exactly (f16 -> f32 is
  // lossless), so the tail matches the lanes bit-for-bit.
  for (; I != N; ++I)
    Sum += std::fabs(Q[I] - f16BitsToF32(Row[I]));
  return Sum;
}

float l1I8(const float *Q, const int8_t *Row, float Scale, int64_t N) {
  __m256 VS = _mm256_set1_ps(Scale);
  __m256 Acc = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256i W = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(Row + I)));
    __m256 R = _mm256_mul_ps(VS, _mm256_cvtepi32_ps(W));
    l1Step(Acc, _mm256_loadu_ps(Q + I), R);
  }
  float Sum = hsum(Acc);
  for (; I != N; ++I)
    Sum += std::fabs(Q[I] - Scale * static_cast<float>(Row[I]));
  return Sum;
}

//===----------------------------------------------------------------------===//
// Elementwise
//
// The non-reduction bodies below use the scalar table's exact per-element
// operation sequence (mul then add, never a fused contraction), so they
// are bit-identical to the scalar reference — SimdTest pins that.
//===----------------------------------------------------------------------===//

void add(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_add_ps(_mm256_loadu_ps(Dst + I),
                                            _mm256_loadu_ps(Src + I)));
  for (; I != N; ++I)
    Dst[I] += Src[I];
}

void sub(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_sub_ps(_mm256_loadu_ps(Dst + I),
                                            _mm256_loadu_ps(Src + I)));
  for (; I != N; ++I)
    Dst[I] -= Src[I];
}

void mul(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_mul_ps(_mm256_loadu_ps(Dst + I),
                                            _mm256_loadu_ps(Src + I)));
  for (; I != N; ++I)
    Dst[I] *= Src[I];
}

void scale(float *Dst, float S, int64_t N) {
  __m256 VS = _mm256_set1_ps(S);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Dst + I, _mm256_mul_ps(_mm256_loadu_ps(Dst + I), VS));
  for (; I != N; ++I)
    Dst[I] *= S;
}

void mulAcc(float *Dst, const float *A, const float *B, int64_t N) {
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 P = _mm256_mul_ps(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I));
    _mm256_storeu_ps(Dst + I, _mm256_add_ps(_mm256_loadu_ps(Dst + I), P));
  }
  for (; I != N; ++I)
    Dst[I] += A[I] * B[I];
}

void sigmoid(float *X, int64_t N) {
  const __m256 One = _mm256_set1_ps(1.f);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 E = expV(_mm256_sub_ps(_mm256_setzero_ps(),
                                  _mm256_loadu_ps(X + I)));
    _mm256_storeu_ps(X + I, _mm256_div_ps(One, _mm256_add_ps(One, E)));
  }
  for (; I != N; ++I)
    X[I] = 1.f / (1.f + expS(0.f - X[I]));
}

void sigmoidBwd(float *DX, const float *DY, const float *Y, int64_t N) {
  const __m256 One = _mm256_set1_ps(1.f);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 VY = _mm256_loadu_ps(Y + I);
    __m256 T = _mm256_mul_ps(_mm256_loadu_ps(DY + I), VY);
    T = _mm256_mul_ps(T, _mm256_sub_ps(One, VY));
    _mm256_storeu_ps(DX + I, _mm256_add_ps(_mm256_loadu_ps(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += DY[I] * Y[I] * (1.f - Y[I]);
}

void tanhFwd(float *X, int64_t N) {
  // tanh(x) = sign(x) * (1 - e) / (1 + e) with e = exp(-2|x|) in (0, 1]:
  // the reduction never overflows and the division is well-conditioned.
  const __m256 One = _mm256_set1_ps(1.f);
  const __m256 SignMask = _mm256_set1_ps(-0.0f);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 V = _mm256_loadu_ps(X + I);
    __m256 Sign = _mm256_and_ps(V, SignMask);
    __m256 Abs = _mm256_andnot_ps(SignMask, V);
    __m256 E = expV(_mm256_mul_ps(_mm256_set1_ps(-2.f), Abs));
    __m256 R = _mm256_div_ps(_mm256_sub_ps(One, E), _mm256_add_ps(One, E));
    _mm256_storeu_ps(X + I, _mm256_or_ps(R, Sign));
  }
  for (; I != N; ++I) {
    float Abs = std::fabs(X[I]);
    float E = expS(-2.f * Abs);
    float R = (1.f - E) / (1.f + E);
    X[I] = std::copysign(R, X[I]);
  }
}

void tanhBwd(float *DX, const float *DY, const float *Y, int64_t N) {
  const __m256 One = _mm256_set1_ps(1.f);
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 VY = _mm256_loadu_ps(Y + I);
    __m256 T = _mm256_mul_ps(_mm256_loadu_ps(DY + I),
                             _mm256_sub_ps(One, _mm256_mul_ps(VY, VY)));
    _mm256_storeu_ps(DX + I, _mm256_add_ps(_mm256_loadu_ps(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += DY[I] * (1.f - Y[I] * Y[I]);
}

void relu(float *X, int64_t N) {
  const __m256 Zero = _mm256_setzero_ps();
  int64_t I = 0;
  // maxps(x, 0) returns its second operand unless x compares greater —
  // exactly the scalar `x > 0 ? x : 0` for zeros and NaN alike.
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(X + I, _mm256_max_ps(_mm256_loadu_ps(X + I), Zero));
  for (; I != N; ++I)
    X[I] = X[I] > 0.f ? X[I] : 0.f;
}

void reluBwd(float *DX, const float *DY, const float *X, int64_t N) {
  const __m256 Zero = _mm256_setzero_ps();
  int64_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 Mask = _mm256_cmp_ps(_mm256_loadu_ps(X + I), Zero, _CMP_GT_OQ);
    __m256 T = _mm256_and_ps(Mask, _mm256_loadu_ps(DY + I));
    _mm256_storeu_ps(DX + I, _mm256_add_ps(_mm256_loadu_ps(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += X[I] > 0.f ? DY[I] : 0.f;
}

//===----------------------------------------------------------------------===//
// Softmax row
//===----------------------------------------------------------------------===//

void softmaxRow(float *Row, int64_t Cols) {
  // Max: float max is exact whatever the order, so this equals the scalar
  // sequential max bit-for-bit.
  float Max = Row[0];
  int64_t I = 1;
  if (Cols >= 9) {
    __m256 VM = _mm256_loadu_ps(Row);
    for (I = 8; I + 8 <= Cols; I += 8)
      VM = _mm256_max_ps(VM, _mm256_loadu_ps(Row + I));
    Max = hmax(VM);
  }
  for (; I < Cols; ++I)
    Max = std::max(Max, Row[I]);

  __m256 VMax = _mm256_set1_ps(Max);
  __m256 VAcc = _mm256_setzero_ps();
  int64_t C = 0;
  for (; C + 8 <= Cols; C += 8) {
    __m256 E = expV(_mm256_sub_ps(_mm256_loadu_ps(Row + C), VMax));
    _mm256_storeu_ps(Row + C, E);
    VAcc = _mm256_add_ps(VAcc, E);
  }
  float Sum = hsum(VAcc);
  for (; C != Cols; ++C) {
    float E = expS(Row[C] - Max);
    Row[C] = E;
    Sum += E;
  }

  __m256 VSum = _mm256_set1_ps(Sum);
  for (C = 0; C + 8 <= Cols; C += 8)
    _mm256_storeu_ps(Row + C, _mm256_div_ps(_mm256_loadu_ps(Row + C), VSum));
  for (; C != Cols; ++C)
    Row[C] /= Sum;
}

constexpr simd::KernelTable Avx2Table = {
    axpyRow,    gemmRow,    dot,     gemmDotRow, l1,    l1F16,
    l1I8,       add,        sub,     mul,        scale, mulAcc,
    sigmoid,    sigmoidBwd, tanhFwd, tanhBwd,    relu,  reluBwd,
    softmaxRow, simd::Isa::Avx2,
};

} // namespace

const simd::KernelTable &simd::avx2Table() { return Avx2Table; }

#endif // TYPILUS_SIMD_AVX2
