//! A small x86-64 encoder for exactly the instruction repertoire of the
//! GEMM micro-kernel (§4.3.1): EVEX-encoded AVX-512 loads, stores,
//! streaming stores, broadcasts and register FMAs, register zeroing, a
//! legacy prefetch hint — and the handful of integer instructions a
//! rolled loop needs (`mov r32, imm32`, `add r64, imm32 / r64`, `dec`,
//! `jnz`).
//!
//! EVEX layout refresher (Intel SDM Vol. 2, §2.7):
//!
//! ```text
//! 0x62 | P0: R̄ X̄ B̄ R̄' 0 m m m | P1: W v̄v̄v̄v̄ 1 p p | P2: z L'L b V̄' a a a
//! ```
//!
//! All extension bits (R, X, B, R', V') are stored inverted. We always use
//! 512-bit vectors (`L'L = 10`), no masking (`aaa = 000`, `z = 0`), no
//! embedded broadcast (`b = 0`), and plain disp32 addressing
//! (`mod = 10`) with bases in the low eight GPRs, so no SIB bytes or
//! compressed displacements are needed.

/// Opcode map selector.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Map {
    /// 0F
    M0F = 1,
    /// 0F 38
    M0F38 = 2,
}

/// Mandatory-prefix selector (`pp`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pp {
    None = 0,
    P66 = 1,
}

/// General-purpose registers the kernels use: the SysV argument
/// registers as bases plus caller-saved scratch (loop counters, the
/// scatter destination and its column offset) — nothing that would have
/// to be saved and restored.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gpr {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
}

/// The r/m operand.
#[derive(Clone, Copy)]
pub enum Rm {
    /// Another zmm register.
    Zmm(u8),
    /// `[base + disp32]`.
    Mem { base: Gpr, disp: i32 },
}

/// Growable code buffer.
#[derive(Default)]
pub struct Asm {
    pub code: Vec<u8>,
}

impl Asm {
    pub fn new() -> Asm {
        Asm::default()
    }

    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Emit one EVEX instruction with a zmm `reg` operand, optional second
    /// source `vvvv`, and an `rm` operand.
    fn evex(&mut self, map: Map, pp: Pp, opcode: u8, reg: u8, vvvv: Option<u8>, rm: Rm) {
        debug_assert!(reg < 32);
        let (xbar, bbar, modrm_rm, mem) = match rm {
            Rm::Zmm(r) => {
                debug_assert!(r < 32);
                ((!(r >> 4)) & 1, (!(r >> 3)) & 1, r & 7, None)
            }
            Rm::Mem { base, disp } => {
                let b = base as u8;
                debug_assert!(b & 7 != 4, "rsp/r12 base needs SIB");
                (1, (!(b >> 3)) & 1, b & 7, Some(disp))
            }
        };
        let rbar = (!(reg >> 3)) & 1;
        let rpbar = (!(reg >> 4)) & 1;
        let p0 = (rbar << 7) | (xbar << 6) | (bbar << 5) | (rpbar << 4) | (map as u8);
        let v = vvvv.unwrap_or(0);
        debug_assert!(v < 32);
        let vbar = (!v) & 0xF;
        let vpbar = (!(v >> 4)) & 1;
        let p1 = (vbar << 3) | 0b100 | (pp as u8); // W = 0 always here
        let p2 = (0b10 << 5) | (vpbar << 3); // z=0, b=0, aaa=0
        self.code.extend_from_slice(&[0x62, p0, p1, p2, opcode]);
        match mem {
            Some(disp) => {
                // mod = 10 (disp32), except mod=00 would be shorter — keep
                // uniform disp32 for simplicity.
                self.code.push(0b10_000_000 | ((reg & 7) << 3) | modrm_rm);
                self.code.extend_from_slice(&disp.to_le_bytes());
            }
            None => {
                self.code.push(0b11_000_000 | ((reg & 7) << 3) | modrm_rm);
            }
        }
    }

    /// `vmovups zmm, [base + disp]` — unaligned 512-bit load.
    pub fn vmovups_load(&mut self, zmm: u8, base: Gpr, disp: i32) {
        self.evex(Map::M0F, Pp::None, 0x10, zmm, None, Rm::Mem { base, disp });
    }

    /// `vmovups [base + disp], zmm` — unaligned 512-bit store.
    pub fn vmovups_store(&mut self, base: Gpr, disp: i32, zmm: u8) {
        self.evex(Map::M0F, Pp::None, 0x11, zmm, None, Rm::Mem { base, disp });
    }

    /// `vmovntps [base + disp], zmm` — non-temporal 512-bit store
    /// (requires 64-byte alignment).
    pub fn vmovntps(&mut self, base: Gpr, disp: i32, zmm: u8) {
        self.evex(Map::M0F, Pp::None, 0x2B, zmm, None, Rm::Mem { base, disp });
    }

    /// `vbroadcastss zmm, dword [base + disp]` — one scalar of `Û` to all
    /// lanes, to be shared by the FMAs of a tile row.
    pub fn vbroadcastss(&mut self, zmm: u8, base: Gpr, disp: i32) {
        self.evex(Map::M0F38, Pp::P66, 0x18, zmm, None, Rm::Mem { base, disp });
    }

    /// `vfmadd231ps zmm_dst, zmm_a, zmm_b` — `dst += a · b`, registers
    /// only.
    pub fn vfmadd231ps(&mut self, dst: u8, a: u8, b: u8) {
        self.evex(Map::M0F38, Pp::P66, 0xB8, dst, Some(a), Rm::Zmm(b));
    }

    /// `vpxord zmm, zmm, zmm` — zero a register (AVX-512F, unlike the
    /// EVEX `vxorps` which needs AVX-512DQ).
    pub fn vzero(&mut self, zmm: u8) {
        self.evex(Map::M0F, Pp::P66, 0xEF, zmm, Some(zmm), Rm::Zmm(zmm));
    }

    /// `prefetcht1 [base + disp]` (legacy encoding).
    pub fn prefetcht1(&mut self, base: Gpr, disp: i32) {
        let b = base as u8;
        debug_assert!(b & 7 != 4);
        if b >= 8 {
            self.code.push(0x41); // REX.B
        }
        self.code.extend_from_slice(&[0x0F, 0x18, 0b10_010_000 | (b & 7)]);
        self.code.extend_from_slice(&disp.to_le_bytes());
    }

    /// `mov dst, qword [base + disp]` — 64-bit GPR load (used to fetch
    /// per-row scatter destinations from the pointer table).
    pub fn mov_load64(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        let d = dst as u8;
        let b = base as u8;
        debug_assert!(b & 7 != 4, "rsp/r12 base needs SIB");
        let rex = 0x48 | ((d >> 3) << 2) | (b >> 3); // REX.W + R + B
        self.code.extend_from_slice(&[rex, 0x8B, 0b10_000_000 | ((d & 7) << 3) | (b & 7)]);
        self.code.extend_from_slice(&disp.to_le_bytes());
    }

    /// `mov r32, imm32` — zero-extends into the 64-bit register (loop
    /// counts and the initial scatter offset).
    pub fn mov_imm32(&mut self, dst: Gpr, imm: u32) {
        let d = dst as u8;
        if d >= 8 {
            self.code.push(0x41); // REX.B
        }
        self.code.push(0xB8 | (d & 7));
        self.code.extend_from_slice(&imm.to_le_bytes());
    }

    /// `add r64, imm32` (sign-extended) — advance or rewind a pointer.
    pub fn add_imm32(&mut self, dst: Gpr, imm: i32) {
        let d = dst as u8;
        self.code.extend_from_slice(&[0x48 | (d >> 3), 0x81, 0b11_000_000 | (d & 7)]);
        self.code.extend_from_slice(&imm.to_le_bytes());
    }

    /// `add dst, src` on 64-bit registers.
    pub fn add_reg(&mut self, dst: Gpr, src: Gpr) {
        let (d, s) = (dst as u8, src as u8);
        let rex = 0x48 | ((s >> 3) << 2) | (d >> 3); // REX.W + R (src) + B (dst)
        self.code.extend_from_slice(&[rex, 0x01, 0b11_000_000 | ((s & 7) << 3) | (d & 7)]);
    }

    /// `dec r64` — sets ZF for the following [`Asm::jnz`].
    pub fn dec(&mut self, reg: Gpr) {
        let r = reg as u8;
        self.code.extend_from_slice(&[0x48 | (r >> 3), 0xFF, 0b11_001_000 | (r & 7)]);
    }

    /// `jnz rel32` to `target`, a byte offset into this buffer (a loop
    /// head recorded with [`Asm::len`]).
    pub fn jnz(&mut self, target: usize) {
        let rel = target as i64 - (self.code.len() as i64 + 6);
        let rel = i32::try_from(rel).expect("jump within one kernel");
        self.code.extend_from_slice(&[0x0F, 0x85]);
        self.code.extend_from_slice(&rel.to_le_bytes());
    }

    /// `sfence` — drain the store buffers after streaming stores.
    pub fn sfence(&mut self) {
        self.code.extend_from_slice(&[0x0F, 0xAE, 0xF8]);
    }

    /// `vzeroupper` — leave no dirty upper halves behind for the SSE
    /// code of the caller.
    pub fn vzeroupper(&mut self) {
        self.code.extend_from_slice(&[0xC5, 0xF8, 0x77]);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.code.push(0xC3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross-check a handful of encodings against byte sequences produced
    /// by a reference assembler (GNU as).
    #[test]
    fn known_encodings() {
        // vmovups zmm0, [rdi+0x40]
        let mut a = Asm::new();
        a.vmovups_load(0, Gpr::Rdi, 0x40);
        assert_eq!(a.code, vec![0x62, 0xF1, 0x7C, 0x48, 0x10, 0x87, 0x40, 0, 0, 0]);

        // vmovups [rdx+0], zmm5
        let mut a = Asm::new();
        a.vmovups_store(Gpr::Rdx, 0, 5);
        assert_eq!(a.code, vec![0x62, 0xF1, 0x7C, 0x48, 0x11, 0xAA, 0, 0, 0, 0]);

        // vmovups zmm30, [rsi+0x100]: zmm30 has bit3 and bit4 set →
        // R̄ = 0, R̄' = 0.
        let mut a = Asm::new();
        a.vmovups_load(30, Gpr::Rsi, 0x100);
        assert_eq!(a.code, vec![0x62, 0x61, 0x7C, 0x48, 0x10, 0xB6, 0, 1, 0, 0]);

        // vpxord zmm7, zmm7, zmm7
        let mut a = Asm::new();
        a.vzero(7);
        assert_eq!(a.code, vec![0x62, 0xF1, 0x45, 0x48, 0xEF, 0xFF]);

        // prefetcht1 [rsi+0x80]
        let mut a = Asm::new();
        a.prefetcht1(Gpr::Rsi, 0x80);
        assert_eq!(a.code, vec![0x0F, 0x18, 0x96, 0x80, 0, 0, 0]);

        // sfence / vzeroupper / ret
        let mut a = Asm::new();
        a.sfence();
        a.vzeroupper();
        a.ret();
        assert_eq!(a.code, vec![0x0F, 0xAE, 0xF8, 0xC5, 0xF8, 0x77, 0xC3]);
    }

    #[test]
    fn gpr_load_and_r8_base() {
        // mov r8, [rcx + 0x10]
        let mut a = Asm::new();
        a.mov_load64(Gpr::R8, Gpr::Rcx, 0x10);
        assert_eq!(a.code, vec![0x4C, 0x8B, 0x81, 0x10, 0, 0, 0]);

        // mov rdx, [rdi + 8]
        let mut a = Asm::new();
        a.mov_load64(Gpr::Rdx, Gpr::Rdi, 8);
        assert_eq!(a.code, vec![0x48, 0x8B, 0x97, 8, 0, 0, 0]);

        // vmovntps [r8 + 0x40], zmm3 — base extension via EVEX.B̄ = 0 —
        // and its plain twin vmovups [r8 + 0x40], zmm3: the two forms of
        // the ⑥ scatter differ in the opcode byte only.
        let mut a = Asm::new();
        a.vmovntps(Gpr::R8, 0x40, 3);
        assert_eq!(a.code, vec![0x62, 0xD1, 0x7C, 0x48, 0x2B, 0x98, 0x40, 0, 0, 0]);
        let mut a = Asm::new();
        a.vmovups_store(Gpr::R8, 0x40, 3);
        assert_eq!(a.code, vec![0x62, 0xD1, 0x7C, 0x48, 0x11, 0x98, 0x40, 0, 0, 0]);
    }

    /// The rolled loop's integer repertoire, against GNU as (which picks
    /// the imm8 forms where they fit; the imm32 forms here differ from
    /// its output only in opcode 81 for 83 and the wider immediate).
    #[test]
    fn loop_control_encodings() {
        // add rdi, 0x40 / add r9, -64
        let mut a = Asm::new();
        a.add_imm32(Gpr::Rdi, 0x40);
        a.add_imm32(Gpr::R9, -64);
        assert_eq!(
            a.code,
            vec![0x48, 0x81, 0xC7, 0x40, 0, 0, 0, 0x49, 0x81, 0xC1, 0xC0, 0xFF, 0xFF, 0xFF]
        );

        // add r8, r11 / add rdx, rax
        let mut a = Asm::new();
        a.add_reg(Gpr::R8, Gpr::R11);
        a.add_reg(Gpr::Rdx, Gpr::Rax);
        assert_eq!(a.code, vec![0x4D, 0x01, 0xD8, 0x48, 0x01, 0xC2]);

        // mov eax, 5 / mov r11d, 0
        let mut a = Asm::new();
        a.mov_imm32(Gpr::Rax, 5);
        a.mov_imm32(Gpr::R11, 0);
        assert_eq!(a.code, vec![0xB8, 5, 0, 0, 0, 0x41, 0xBB, 0, 0, 0, 0]);

        // dec rax / dec r10
        let mut a = Asm::new();
        a.dec(Gpr::Rax);
        a.dec(Gpr::R10);
        assert_eq!(a.code, vec![0x48, 0xFF, 0xC8, 0x49, 0xFF, 0xCA]);

        // top: dec rax; jnz top — rel32 counts from the end of the jump:
        // −(3 + 6) = −9.
        let mut a = Asm::new();
        a.ret(); // something in front, so the target is not offset 0
        let top = a.len();
        a.dec(Gpr::Rax);
        a.jnz(top);
        assert_eq!(a.code, vec![0xC3, 0x48, 0xFF, 0xC8, 0x0F, 0x85, 0xF7, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn tile_row_encodings() {
        // vbroadcastss zmm28, dword [rdi+8] (as emits disp8·4 = 0x02
        // under modrm 0x67; disp32 form: modrm 0xA7).
        let mut a = Asm::new();
        a.vbroadcastss(28, Gpr::Rdi, 8);
        assert_eq!(a.code, vec![0x62, 0x62, 0x7D, 0x48, 0x18, 0xA7, 8, 0, 0, 0]);

        // vfmadd231ps zmm3, zmm28, zmm25
        let mut a = Asm::new();
        a.vfmadd231ps(3, 28, 25);
        assert_eq!(a.code, vec![0x62, 0x92, 0x1D, 0x40, 0xB8, 0xD9]);

        // prefetcht1 [r9+0x40] — REX.B for the extended base.
        let mut a = Asm::new();
        a.prefetcht1(Gpr::R9, 0x40);
        assert_eq!(a.code, vec![0x41, 0x0F, 0x18, 0x91, 0x40, 0, 0, 0]);
    }

    #[test]
    fn high_registers_set_extension_bits() {
        // vpxord zmm31, zmm31, zmm31: R̄=0, R̄'=0, X̄=0, B̄=0, v̄=0, V̄'=0.
        let mut a = Asm::new();
        a.vzero(31);
        assert_eq!(a.code, vec![0x62, 0x01, 0x05, 0x40, 0xEF, 0xFF]);
    }

    #[test]
    fn negative_displacements() {
        let mut a = Asm::new();
        a.vmovups_load(1, Gpr::Rcx, -64);
        let disp = &a.code[6..10];
        assert_eq!(disp, (-64i32).to_le_bytes());
    }
}
