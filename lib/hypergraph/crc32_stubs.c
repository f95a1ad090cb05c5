/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-16.

   Table k (entries [k][0..255]) is the CRC of a byte followed by k zero
   bytes, so sixteen lookups advance the CRC over sixteen input bytes at
   once; table 0 is the classic bytewise table and serves the tail (fewer
   than sixteen bytes).  The word the running CRC is folded into is
   assembled from its bytes in little-endian order and the other twelve
   bytes index their tables directly, so the result does not depend on the
   host's byte order.  (Twelve byte loads measured faster than three more
   assembled words: 0.33-0.41 against 0.43-0.49 ns per byte on 64 KB,
   gcc -O2 on a 2-core x86-64 VM.)  The tables are filled once, by
   semimatch_crc32_init, which the OCaml module calls while it
   initialises: every later call only reads them, from any domain. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t crc_table[16][256];

CAMLprim value semimatch_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int k = 1; k < 16; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t c = crc_table[k - 1][n];
      crc_table[k][n] = (c >> 8) ^ crc_table[0][c & 0xff];
    }
  return Val_unit;
}

static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
}

/* The caller has checked that [pos, pos + len) lies inside [b]. */
intnat semimatch_crc32(value b, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(b) + pos;
  uint32_t c = 0xFFFFFFFFu;
  for (; len >= 16; len -= 16, p += 16) {
    uint32_t w = c ^ le32(p);
    c = crc_table[15][w & 0xff] ^ crc_table[14][(w >> 8) & 0xff]
        ^ crc_table[13][(w >> 16) & 0xff] ^ crc_table[12][w >> 24]
        ^ crc_table[11][p[4]] ^ crc_table[10][p[5]] ^ crc_table[9][p[6]] ^ crc_table[8][p[7]]
        ^ crc_table[7][p[8]] ^ crc_table[6][p[9]] ^ crc_table[5][p[10]] ^ crc_table[4][p[11]]
        ^ crc_table[3][p[12]] ^ crc_table[2][p[13]] ^ crc_table[1][p[14]] ^ crc_table[0][p[15]];
  }
  for (; len > 0; len--, p++) c = crc_table[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return (intnat)(c ^ 0xFFFFFFFFu);
}

CAMLprim value semimatch_crc32_bytecode(value b, value pos, value len)
{
  return Val_long(semimatch_crc32(b, Long_val(pos), Long_val(len)));
}
