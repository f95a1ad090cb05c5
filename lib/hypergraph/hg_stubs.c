/* The .hg reader's two loops over the text (Io.of_string).

   semimatch_hg_count sizes the graph builder: it counts the lines that
   start with "h " and the pins those lines hold, from masks of 64-byte
   blocks (SSE2 compares where the compiler targets SSE2, a byte loop
   elsewhere).

   semimatch_hg_lines reads canonical hyperedge lines straight into the
   builder's arrays.  A canonical line is 'h', then fields of plain digits,
   each after exactly one space, ending at '\n' or at the end of the text:
   the task (at most 18 digits), the weight (at most 15, so it converts to a
   double exactly) and the pins (at most 18 each).  The loop takes a line
   only when Graph.end_hyperedge would accept its hyperedge without work the
   loop leaves to OCaml: the task below n1 and, while the builder is
   grouped, not below the previous one; a weight of at least 1; 1 to 32
   pins, each below n2, none repeated; a free slot in every array.  It stops
   at the first line it refuses and returns that line's first byte; the
   general scanner reads that line, so every message and every case the
   loop does not handle (comments, CR, tabs, signs, decimal weights, a
   regrouping, a grown array, a hash-checked configuration) stay OCaml's.

   Both allocate nothing.  The line loop stores only immediates into int
   arrays and doubles into a flat float array, and checks every index
   against the length of the array it writes and every byte against the
   length of the text. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

/* Bit k of *sp, *hh and *nl: byte k of the 64 at p is ' ', 'h' or '\n'. */
#if defined(__SSE2__)
#include <emmintrin.h>

static inline void block_masks(const unsigned char *p, uint64_t *sp, uint64_t *hh, uint64_t *nl)
{
  const __m128i space = _mm_set1_epi8(' '), h = _mm_set1_epi8('h'), newline = _mm_set1_epi8('\n');
  uint64_t s = 0, a = 0, n = 0;
  for (int k = 0; k < 4; k++) {
    __m128i x = _mm_loadu_si128((const __m128i *)(p + 16 * k));
    s |= (uint64_t)(unsigned)_mm_movemask_epi8(_mm_cmpeq_epi8(x, space)) << (16 * k);
    a |= (uint64_t)(unsigned)_mm_movemask_epi8(_mm_cmpeq_epi8(x, h)) << (16 * k);
    n |= (uint64_t)(unsigned)_mm_movemask_epi8(_mm_cmpeq_epi8(x, newline)) << (16 * k);
  }
  *sp = s;
  *hh = a;
  *nl = n;
}
#else
static inline void block_masks(const unsigned char *p, uint64_t *sp, uint64_t *hh, uint64_t *nl)
{
  uint64_t s = 0, a = 0, n = 0;
  for (int k = 0; k < 64; k++) {
    s |= (uint64_t)(p[k] == ' ') << k;
    a |= (uint64_t)(p[k] == 'h') << k;
    n |= (uint64_t)(p[k] == '\n') << k;
  }
  *sp = s;
  *hh = a;
  *nl = n;
}
#endif

/* Lines starting with "h " and the pins they hold (their spaces less two
   each, never below 0) into counts.(0) and counts.(1).  Exact for every
   text Io.to_string writes; only a capacity hint for others.

   A 64-byte block at a time: a line starting at byte j is an "h " line
   when the space at j + 1 follows an 'h' that follows a line start, so the
   masks of the block holding j + 1 (and the last two bytes of the one
   before) count the "h " lines and every space without a branch per byte.
   Only a line that starts otherwise (a header, a comment, a blank line) is
   walked, to take its spaces back out.  The last block, which also covers
   byte len, is read from a zero-padded copy. */
CAMLprim value semimatch_hg_count(value text, value counts)
{
  const unsigned char *t = (const unsigned char *)String_val(text);
  intnat len = caml_string_length(text), hyperedges = 0, spaces = 0, o = 0;
  /* the previous block's 'h' and '\n' masks; byte -1 counts as '\n' */
  uint64_t prev_h = 0, prev_nl = (uint64_t)1 << 63;
  for (;;) {
    uint64_t sp, hh, nl, starts, h_lines, others;
    unsigned char tail[64];
    int last = o + 64 > len;
    if (last) {
      memset(tail, 0, sizeof tail);
      memcpy(tail, t + o, len - o);
    }
    block_masks(last ? tail : t + o, &sp, &hh, &nl);
    starts = (nl << 2) | (prev_nl >> 62); /* bit k: a line starts at byte k - 1 */
    h_lines = starts & ((hh << 1) | (prev_h >> 63)) & sp;
    hyperedges += __builtin_popcountll(h_lines);
    spaces += __builtin_popcountll(sp);
    for (others = starts & ~h_lines; others != 0; others &= others - 1)
      for (intnat i = o + __builtin_ctzll(others) - 1; i < len && t[i] != '\n'; i++) spaces -= t[i] == ' ';
    if (last) break;
    prev_h = hh;
    prev_nl = nl;
    o += 64;
  }
  Field(counts, 0) = Val_long(hyperedges);
  Field(counts, 1) = Val_long(spaces > 2 * hyperedges ? spaces - 2 * hyperedges : 0);
  return Val_unit;
}

/* The plain-digit field at *ip, at most [max] digits: its value, or -1 when
   it has no digit or too many.  *ip is left at the first byte after the
   digits. */
static inline int64_t field(const unsigned char *t, intnat len, intnat *ip, intnat max)
{
  intnat i = *ip, first = i;
  uint64_t v = 0;
  unsigned d;
  while (i < len && (d = (unsigned)t[i] - '0') <= 9) {
    v = v * 10 + d;
    i++;
  }
  *ip = i;
  return i == first || i - first > max ? -1 : (int64_t)v;
}

/* Canonical lines from [pos], the first byte of a line, into the builder
   state: [counters] holds its hyperedge count, pin count and last task
   (read, then updated), [count] its per-task counts (length n1 + 1),
   [off] its pin offsets, [adj] its pins, [w] its weights and, when
   [grouped] is 0, [tasks] its per-hyperedge tasks.  The first byte of the
   first line refused, or the text's length + 1 after a last line without
   '\n'. */
intnat semimatch_hg_lines(value text, intnat pos, intnat n2, intnat grouped, value counters,
                          value count, value off, value adj, value w, value tasks)
{
  const unsigned char *t = (const unsigned char *)String_val(text);
  intnat len = caml_string_length(text);
  intnat nh = Long_val(Field(counters, 0)), np = Long_val(Field(counters, 1));
  int64_t last = Long_val(Field(counters, 2));
  int64_t n1 = (int64_t)Wosize_val(count) - 1;
  intnat adj_len = Wosize_val(adj);
  /* hyperedge slots free in every array: weights, offsets (one more
     entry) and, once ungrouped, tasks */
  intnat cap = Tag_val(w) == Double_array_tag ? Wosize_val(w) / Double_wosize : 0;
  if ((intnat)Wosize_val(off) - 1 < cap) cap = Wosize_val(off) - 1;
  if (!grouped && (intnat)Wosize_val(tasks) < cap) cap = Wosize_val(tasks);

  while (pos < len && nh < cap) {
    intnat i = pos + 2, k = 0, j;
    int64_t task, weight, u;
    if (t[pos] != 'h' || i > len || t[pos + 1] != ' ') break;
    task = field(t, len, &i, 18);
    if (task < 0 || task >= n1 || (grouped && task < last) || i == len || t[i] != ' ') break;
    i++;
    weight = field(t, len, &i, 15);
    if (weight < 1 || i == len || t[i] != ' ') break;
    /* the pins go into adj's free tail; they count only once the line is
       taken */
    for (;;) {
      i++;
      u = field(t, len, &i, 18);
      if (u < 0 || u >= n2 || k == 32 || np + k >= adj_len) goto refused;
      for (j = 0; j < k; j++)
        if (Long_val(Field(adj, np + j)) == u) goto refused;
      Field(adj, np + k) = Val_long(u);
      k++;
      if (i == len || t[i] == '\n') break;
      if (t[i] != ' ') goto refused;
    }
    Field(count, task + 1) = Val_long(Long_val(Field(count, task + 1)) + 1);
    Field(off, nh + 1) = Val_long(np + k);
    Store_double_flat_field(w, nh, (double)weight);
    if (!grouped) Field(tasks, nh) = Val_long(task);
    nh++;
    np += k;
    last = task;
    pos = i + 1;
  }
refused:
  Field(counters, 0) = Val_long(nh);
  Field(counters, 1) = Val_long(np);
  Field(counters, 2) = Val_long(last);
  return pos;
}

CAMLprim value semimatch_hg_lines_bytecode(value *argv, int argn)
{
  (void)argn;
  return Val_long(semimatch_hg_lines(argv[0], Long_val(argv[1]), Long_val(argv[2]), Long_val(argv[3]),
                                     argv[4], argv[5], argv[6], argv[7], argv[8], argv[9]));
}
