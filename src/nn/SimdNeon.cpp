//===- nn/SimdNeon.cpp - NEON kernel table (aarch64) --------------------------===//
//
// NEON is baseline on aarch64, so no runtime probe and no special compile
// flags are needed. The table starts from the scalar reference and
// overrides the straightforward f32 loops; the transcendental kernels
// (sigmoid/tanh/softmax) and the quantized-row decoders stay on the
// scalar entries — vectorizing those is only worth doing against hardware
// this project's CI can actually measure and tolerance-test on.
//
//===----------------------------------------------------------------------===//

#include "nn/Simd.h"

#ifdef TYPILUS_SIMD_NEON

#include <arm_neon.h>
#include <cmath>

using namespace typilus;
using namespace typilus::nn;

namespace {

void axpyRow(float *Dst, float A, const float *X, int64_t N) {
  float32x4_t VA = vdupq_n_f32(A);
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    vst1q_f32(Dst + I, vfmaq_f32(vld1q_f32(Dst + I), VA, vld1q_f32(X + I)));
  for (; I != N; ++I)
    Dst[I] = std::fmaf(A, X[I], Dst[I]); // fused, like the vfmaq lanes
}

float dot(const float *A, const float *B, int64_t N) {
  float32x4_t Acc = vdupq_n_f32(0.f);
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    Acc = vfmaq_f32(Acc, vld1q_f32(A + I), vld1q_f32(B + I));
  float Sum = vaddvq_f32(Acc);
  for (; I != N; ++I)
    Sum = std::fmaf(A[I], B[I], Sum);
  return Sum;
}

float l1(const float *A, const float *B, int64_t N) {
  float32x4_t Acc = vdupq_n_f32(0.f);
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    Acc = vaddq_f32(Acc, vabdq_f32(vld1q_f32(A + I), vld1q_f32(B + I)));
  float Sum = vaddvq_f32(Acc);
  for (; I != N; ++I)
    Sum += std::fabs(A[I] - B[I]);
  return Sum;
}

void add(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    vst1q_f32(Dst + I, vaddq_f32(vld1q_f32(Dst + I), vld1q_f32(Src + I)));
  for (; I != N; ++I)
    Dst[I] += Src[I];
}

void sub(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    vst1q_f32(Dst + I, vsubq_f32(vld1q_f32(Dst + I), vld1q_f32(Src + I)));
  for (; I != N; ++I)
    Dst[I] -= Src[I];
}

void mul(float *Dst, const float *Src, int64_t N) {
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    vst1q_f32(Dst + I, vmulq_f32(vld1q_f32(Dst + I), vld1q_f32(Src + I)));
  for (; I != N; ++I)
    Dst[I] *= Src[I];
}

void scale(float *Dst, float S, int64_t N) {
  float32x4_t VS = vdupq_n_f32(S);
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    vst1q_f32(Dst + I, vmulq_f32(vld1q_f32(Dst + I), VS));
  for (; I != N; ++I)
    Dst[I] *= S;
}

void mulAcc(float *Dst, const float *A, const float *B, int64_t N) {
  int64_t I = 0;
  // mul then add (not vfmaq): bit-identical to the scalar reference.
  for (; I + 4 <= N; I += 4)
    vst1q_f32(Dst + I,
              vaddq_f32(vld1q_f32(Dst + I),
                        vmulq_f32(vld1q_f32(A + I), vld1q_f32(B + I))));
  for (; I != N; ++I)
    Dst[I] += A[I] * B[I];
}

void sigmoidBwd(float *DX, const float *DY, const float *Y, int64_t N) {
  float32x4_t One = vdupq_n_f32(1.f);
  int64_t I = 0;
  for (; I + 4 <= N; I += 4) {
    float32x4_t VY = vld1q_f32(Y + I);
    float32x4_t T = vmulq_f32(vld1q_f32(DY + I), VY);
    T = vmulq_f32(T, vsubq_f32(One, VY));
    vst1q_f32(DX + I, vaddq_f32(vld1q_f32(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += DY[I] * Y[I] * (1.f - Y[I]);
}

void tanhBwd(float *DX, const float *DY, const float *Y, int64_t N) {
  float32x4_t One = vdupq_n_f32(1.f);
  int64_t I = 0;
  for (; I + 4 <= N; I += 4) {
    float32x4_t VY = vld1q_f32(Y + I);
    float32x4_t T = vmulq_f32(vld1q_f32(DY + I),
                              vsubq_f32(One, vmulq_f32(VY, VY)));
    vst1q_f32(DX + I, vaddq_f32(vld1q_f32(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += DY[I] * (1.f - Y[I] * Y[I]);
}

void relu(float *X, int64_t N) {
  float32x4_t Zero = vdupq_n_f32(0.f);
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    vst1q_f32(X + I, vmaxq_f32(vld1q_f32(X + I), Zero));
  for (; I != N; ++I)
    X[I] = X[I] > 0.f ? X[I] : 0.f;
}

void reluBwd(float *DX, const float *DY, const float *X, int64_t N) {
  float32x4_t Zero = vdupq_n_f32(0.f);
  int64_t I = 0;
  for (; I + 4 <= N; I += 4) {
    uint32x4_t Mask = vcgtq_f32(vld1q_f32(X + I), Zero);
    float32x4_t T = vreinterpretq_f32_u32(
        vandq_u32(Mask, vreinterpretq_u32_f32(vld1q_f32(DY + I))));
    vst1q_f32(DX + I, vaddq_f32(vld1q_f32(DX + I), T));
  }
  for (; I != N; ++I)
    DX[I] += X[I] > 0.f ? DY[I] : 0.f;
}

} // namespace

const simd::KernelTable &simd::neonTable() {
  static const KernelTable T = [] {
    KernelTable N = scalarTable();
    N.AxpyRow = axpyRow;
    N.GemmRow = gemmRowOverAxpy<axpyRow>;
    N.Dot = dot;
    N.GemmDotRow = gemmDotRowOverDot<dot>;
    N.L1 = l1;
    N.Add = add;
    N.Sub = sub;
    N.Mul = mul;
    N.Scale = scale;
    N.MulAcc = mulAcc;
    N.SigmoidBwd = sigmoidBwd;
    N.TanhBwd = tanhBwd;
    N.Relu = relu;
    N.ReluBwd = reluBwd;
    N.WhichIsa = Isa::Neon;
    return N;
  }();
  return T;
}

#endif // TYPILUS_SIMD_NEON
