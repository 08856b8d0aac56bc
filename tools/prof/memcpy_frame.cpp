// Frame-keeping memcpy and memmove, preloaded next to libprof_sampler.so
// (README.md). glibc's copies set up no stack frame, so the frame walk of a
// sample that lands in one skips the copy's caller and charges its caller's
// caller instead. These copies push a frame before they copy with
// `rep movsb`. They are written in assembly because GCC drops the frame of a
// leaf function even under -fno-omit-frame-pointer.
asm(R"(
  .text
  .globl memcpy
  .type memcpy, @function
memcpy:
  push %rbp
  mov %rsp, %rbp
  mov %rdi, %rax
  mov %rdx, %rcx
  rep movsb
  pop %rbp
  ret
  .size memcpy, .-memcpy

  .globl memmove
  .type memmove, @function
memmove:
  push %rbp
  mov %rsp, %rbp
  mov %rdi, %rax
  mov %rdx, %rcx
  cmp %rsi, %rdi
  jbe 1f
  lea (%rsi,%rdx), %r8
  cmp %r8, %rdi
  jae 1f
  # dst overlaps src from above: copy from the last byte down.
  lea -1(%rdi,%rdx), %rdi
  lea -1(%rsi,%rdx), %rsi
  std
  rep movsb
  cld
  pop %rbp
  ret
1:
  rep movsb
  pop %rbp
  ret
  .size memmove, .-memmove
)");
