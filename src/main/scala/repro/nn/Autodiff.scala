package repro.nn

import scala.collection.mutable.ArrayBuffer

/** Tape-based reverse-mode autodiff over [[Tensor]]s.
  *
  * Every op appends a node to the implicit [[Tape]]; `Tape.backward(loss)`
  * walks the tape in reverse, invoking each node's backward closure which
  * accumulates into parents' `grad`. [[Param]]s are persistent leaves whose
  * gradients survive the tape (consumed by [[Adam]]).
  *
  * Sized for this repo's models: thousands of rows, dims ≤ 64. Correctness is
  * checked against finite differences in `nn` tests.
  */
final class Tape {
  private[nn] val nodes = ArrayBuffer[Node]()

  def register(n: Node): Unit = nodes += n

  /** Seeds `loss` (must be 1×1) with gradient 1 and back-propagates. */
  def backward(loss: Node): Unit = {
    require(loss.v.rows == 1 && loss.v.cols == 1, "backward: loss must be scalar")
    loss.grad.data(0) = 1.0
    var i = nodes.length - 1
    while (i >= 0) {
      val n = nodes(i)
      if (n.g != null && n.backFn != null) n.backFn()
      i -= 1
    }
  }
}

/** One value in the computation graph. `g` is allocated lazily on first use so
  * untouched branches cost nothing in backward.
  */
final class Node(val v: Tensor)(implicit tape: Tape) {
  private[nn] var g: Tensor = _
  private[nn] var backFn: () => Unit = _
  tape.register(this)

  def grad: Tensor = { if (g == null) g = Tensor.zeros(v.rows, v.cols); g }
}

/** A trainable parameter: persistent value + gradient accumulator. */
final class Param(val v: Tensor, val name: String = "") {
  val g: Tensor = Tensor.zeros(v.rows, v.cols)
  def zeroGrad(): Unit = g.zeroInPlace()
}

/** The op library. All ops are pure w.r.t. inputs; gradients accumulate. */
object Ad {

  def leaf(p: Param)(implicit t: Tape): Node = {
    val n = new Node(p.v)
    n.backFn = () => p.g.addInPlace(n.g)
    n
  }

  def const(v: Tensor)(implicit t: Tape): Node = new Node(v)

  def matmul(a: Node, b: Node)(implicit t: Tape): Node = {
    val out = new Node(a.v mm b.v)
    out.backFn = () => {
      a.grad.addInPlace(out.g mm b.v.t)
      b.grad.addInPlace(a.v.t mm out.g)
    }
    out
  }

  def add(a: Node, b: Node)(implicit t: Tape): Node = {
    val out = new Node(a.v + b.v)
    out.backFn = () => { a.grad.addInPlace(out.g); b.grad.addInPlace(out.g) }
    out
  }

  def sub(a: Node, b: Node)(implicit t: Tape): Node = {
    val out = new Node(a.v - b.v)
    out.backFn = () => { a.grad.addInPlace(out.g); b.grad.addInPlace((-1.0) *: out.g) }
    out
  }

  /** Broadcast-add a 1×c bias row to every row of `a`. */
  def addBias(a: Node, bias: Node)(implicit t: Tape): Node = {
    val out = new Node(a.v.addRow(bias.v))
    out.backFn = () => {
      a.grad.addInPlace(out.g)
      val bg = bias.grad
      var r = 0
      while (r < out.g.rows) {
        var c = 0
        while (c < out.g.cols) { bg.data(c) += out.g.data(r * out.g.cols + c); c += 1 }
        r += 1
      }
    }
    out
  }

  def hadamard(a: Node, b: Node)(implicit t: Tape): Node = {
    val out = new Node(a.v.hadamard(b.v))
    out.backFn = () => {
      a.grad.addInPlace(out.g.hadamard(b.v))
      b.grad.addInPlace(out.g.hadamard(a.v))
    }
    out
  }

  def scale(a: Node, s: Double)(implicit t: Tape): Node = {
    val out = new Node(s *: a.v)
    out.backFn = () => a.grad.addInPlace(s *: out.g)
    out
  }

  /** The logistic function σ(x) = 1/(1+e^{-x}); every scorer's logit → score map. */
  def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  def sigmoid(a: Node)(implicit t: Tape): Node = {
    val sv = a.v.map(x => sigmoid(x))
    val out = new Node(sv)
    out.backFn = () => a.grad.addInPlace(out.g.hadamard(sv.map(s => s * (1 - s))))
    out
  }

  def tanh(a: Node)(implicit t: Tape): Node = {
    val tv = a.v.map(math.tanh)
    val out = new Node(tv)
    out.backFn = () => a.grad.addInPlace(out.g.hadamard(tv.map(x => 1 - x * x)))
    out
  }

  def relu(a: Node)(implicit t: Tape): Node = {
    val out = new Node(a.v.map(x => if (x > 0) x else 0.0))
    out.backFn = () => a.grad.addInPlace(out.g.zip(a.v)((g, x) => if (x > 0) g else 0.0))
    out
  }

  /** Gathers rows of `a` at `idx` (with repetition); backward scatter-adds. */
  def gatherRows(a: Node, idx: Array[Int])(implicit t: Tape): Node = {
    val c = a.v.cols
    val out = Tensor.zeros(idx.length, c)
    var i = 0
    while (i < idx.length) { System.arraycopy(a.v.data, idx(i) * c, out.data, i * c, c); i += 1 }
    val node = new Node(out)
    node.backFn = () => {
      val ag = a.grad
      var i = 0
      while (i < idx.length) {
        val src = i * c; val dst = idx(i) * c
        var j = 0
        while (j < c) { ag.data(dst + j) += node.g.data(src + j); j += 1 }
        i += 1
      }
    }
    node
  }

  /** Repeats each row of `a` `k` times (row i → rows i*k..i*k+k-1). */
  def repeatRows(a: Node, k: Int)(implicit t: Tape): Node = {
    val c = a.v.cols
    val out = Tensor.zeros(a.v.rows * k, c)
    var r = 0
    while (r < a.v.rows) {
      var j = 0
      while (j < k) { System.arraycopy(a.v.data, r * c, out.data, (r * k + j) * c, c); j += 1 }
      r += 1
    }
    val node = new Node(out)
    node.backFn = () => {
      val ag = a.grad
      var r = 0
      while (r < a.v.rows) {
        var j = 0
        while (j < k) {
          val src = (r * k + j) * c
          var cc = 0
          while (cc < c) { ag.data(r * c + cc) += node.g.data(src + cc); cc += 1 }
          j += 1
        }
        r += 1
      }
    }
    node
  }

  /** Reinterprets an (r*k)×1 column as r×k (same backing order). */
  def reshape(a: Node, rows: Int, cols: Int)(implicit t: Tape): Node = {
    require(rows * cols == a.v.rows * a.v.cols, "reshape size mismatch")
    val out = new Node(new Tensor(rows, cols, a.v.data.clone()))
    out.backFn = () => a.grad.addInPlace(new Tensor(a.v.rows, a.v.cols, out.g.data.clone()))
    out
  }

  def concatCols(a: Node, b: Node)(implicit t: Tape): Node = {
    require(a.v.rows == b.v.rows, "concatCols row mismatch")
    val (ca, cb) = (a.v.cols, b.v.cols)
    val out = Tensor.zeros(a.v.rows, ca + cb)
    var r = 0
    while (r < a.v.rows) {
      System.arraycopy(a.v.data, r * ca, out.data, r * (ca + cb), ca)
      System.arraycopy(b.v.data, r * cb, out.data, r * (ca + cb) + ca, cb)
      r += 1
    }
    val node = new Node(out)
    node.backFn = () => {
      val (ag, bg) = (a.grad, b.grad)
      var r = 0
      while (r < a.v.rows) {
        var j = 0
        while (j < ca) { ag.data(r * ca + j) += node.g.data(r * (ca + cb) + j); j += 1 }
        j = 0
        while (j < cb) { bg.data(r * cb + j) += node.g.data(r * (ca + cb) + ca + j); j += 1 }
        r += 1
      }
    }
    node
  }

  /** Row-wise softmax (numerically stabilised). */
  def softmaxRows(a: Node)(implicit t: Tape): Node = {
    val (r, c) = (a.v.rows, a.v.cols)
    val sv = Tensor.zeros(r, c)
    var i = 0
    while (i < r) {
      var mx = Double.NegativeInfinity
      var j = 0
      while (j < c) { mx = math.max(mx, a.v(i, j)); j += 1 }
      var s = 0.0
      j = 0
      while (j < c) { val e = math.exp(a.v(i, j) - mx); sv(i, j) = e; s += e; j += 1 }
      j = 0
      while (j < c) { sv(i, j) /= s; j += 1 }
      i += 1
    }
    val out = new Node(sv)
    out.backFn = () => {
      val ag = a.grad
      var i = 0
      while (i < r) {
        var dot = 0.0
        var j = 0
        while (j < c) { dot += out.g(i, j) * sv(i, j); j += 1 }
        j = 0
        while (j < c) { ag.data(i * c + j) += sv(i, j) * (out.g(i, j) - dot); j += 1 }
        i += 1
      }
    }
    out
  }

  /** Attention pooling: hnb is (B*K)×d, w is B×K; out[b] = Σ_k w[b,k]·hnb[b*K+k]. */
  def attnPool(hnb: Node, w: Node, k: Int)(implicit t: Tape): Node = {
    val b = w.v.rows
    require(hnb.v.rows == b * k, s"attnPool: ${hnb.v.rows} != $b*$k")
    val d = hnb.v.cols
    val out = Tensor.zeros(b, d)
    var bi = 0
    while (bi < b) {
      var ki = 0
      while (ki < k) {
        val wv = w.v(bi, ki)
        if (wv != 0.0) {
          val off = (bi * k + ki) * d
          var j = 0
          while (j < d) { out.data(bi * d + j) += wv * hnb.v.data(off + j); j += 1 }
        }
        ki += 1
      }
      bi += 1
    }
    val node = new Node(out)
    node.backFn = () => {
      val hg = hnb.grad; val wg = w.grad
      var bi = 0
      while (bi < b) {
        var ki = 0
        while (ki < k) {
          val off = (bi * k + ki) * d
          val wv = w.v(bi, ki)
          var dot = 0.0
          var j = 0
          while (j < d) {
            hg.data(off + j) += wv * node.g.data(bi * d + j)
            dot += node.g.data(bi * d + j) * hnb.v.data(off + j)
            j += 1
          }
          wg.data(bi * k + ki) += dot
          ki += 1
        }
        bi += 1
      }
    }
    node
  }

  /** Row-wise dot product of two equal-shape matrices → n×1. */
  def rowDot(a: Node, b: Node)(implicit t: Tape): Node = {
    require(a.v.rows == b.v.rows && a.v.cols == b.v.cols, "rowDot shape mismatch")
    val n = a.v.rows; val c = a.v.cols
    val out = Tensor.zeros(n, 1)
    var i = 0
    while (i < n) {
      var s = 0.0; var j = 0
      while (j < c) { s += a.v(i, j) * b.v(i, j); j += 1 }
      out(i, 0) = s; i += 1
    }
    val node = new Node(out)
    node.backFn = () => {
      val (ag, bg) = (a.grad, b.grad)
      var i = 0
      while (i < n) {
        val g = node.g(i, 0)
        var j = 0
        while (j < c) {
          ag.data(i * c + j) += g * b.v(i, j)
          bg.data(i * c + j) += g * a.v(i, j)
          j += 1
        }
        i += 1
      }
    }
    node
  }

  def transpose(a: Node)(implicit t: Tape): Node = {
    val out = new Node(a.v.t)
    out.backFn = () => a.grad.addInPlace(out.g.t)
    out
  }

  /** Broadcast-multiply every row of `a` by a 1×c row vector. */
  def mulRow(a: Node, row: Node)(implicit t: Tape): Node = {
    require(row.v.rows == 1 && row.v.cols == a.v.cols, "mulRow shape mismatch")
    val out = Tensor.zeros(a.v.rows, a.v.cols)
    val c = a.v.cols
    var r = 0
    while (r < a.v.rows) {
      var j = 0
      while (j < c) { out.data(r * c + j) = a.v.data(r * c + j) * row.v.data(j); j += 1 }
      r += 1
    }
    val node = new Node(out)
    node.backFn = () => {
      val ag = a.grad; val rg = row.grad
      var r = 0
      while (r < a.v.rows) {
        var j = 0
        while (j < c) {
          ag.data(r * c + j) += node.g.data(r * c + j) * row.v.data(j)
          rg.data(j) += node.g.data(r * c + j) * a.v.data(r * c + j)
          j += 1
        }
        r += 1
      }
    }
    node
  }

  def mean(a: Node)(implicit t: Tape): Node = {
    val n = a.v.rows * a.v.cols
    val out = new Node(Tensor.fill(1, 1, a.v.sum / n))
    out.backFn = () => a.grad.addInPlace(Tensor.fill(a.v.rows, a.v.cols, out.g.data(0) / n))
    out
  }

  /** Mean binary cross-entropy with logits. `labels` in {0,1}, logits n×1. */
  def bceWithLogits(logits: Node, labels: Array[Double])(implicit t: Tape): Node = {
    val n = logits.v.rows
    require(logits.v.cols == 1 && labels.length == n, "bceWithLogits shape mismatch")
    var loss = 0.0
    var i = 0
    while (i < n) {
      val z = logits.v(i, 0); val y = labels(i)
      // stable: max(z,0) - z*y + log(1+exp(-|z|))
      loss += math.max(z, 0) - z * y + math.log1p(math.exp(-math.abs(z)))
      i += 1
    }
    val out = new Node(Tensor.fill(1, 1, loss / n))
    out.backFn = () => {
      val lg = logits.grad
      val s = out.g.data(0) / n
      var i = 0
      while (i < n) {
        val z = logits.v(i, 0)
        lg.data(i) += s * (sigmoid(z) - labels(i))
        i += 1
      }
    }
    out
  }

  /** InfoNCE over a logits matrix whose diagonal holds the positive pair:
    * loss = -mean_i log softmax(row_i)[i].
    */
  def infoNceDiag(logits: Node)(implicit t: Tape): Node = {
    val n = logits.v.rows
    require(logits.v.cols == n, "infoNceDiag: square matrix expected")
    val probs = Tensor.zeros(n, n)
    var loss = 0.0
    var i = 0
    while (i < n) {
      var mx = Double.NegativeInfinity
      var j = 0
      while (j < n) { mx = math.max(mx, logits.v(i, j)); j += 1 }
      var s = 0.0
      j = 0
      while (j < n) { val e = math.exp(logits.v(i, j) - mx); probs(i, j) = e; s += e; j += 1 }
      j = 0
      while (j < n) { probs(i, j) /= s; j += 1 }
      loss -= math.log(math.max(probs(i, i), 1e-12))
      i += 1
    }
    val out = new Node(Tensor.fill(1, 1, loss / n))
    out.backFn = () => {
      val lg = logits.grad
      val s = out.g.data(0) / n
      var i = 0
      while (i < n) {
        var j = 0
        while (j < n) {
          lg.data(i * n + j) += s * (probs(i, j) - (if (i == j) 1.0 else 0.0))
          j += 1
        }
        i += 1
      }
    }
    out
  }

  /** Batched self-attention for the ensemble encoder. Q,K,V are (B*T)×dk laid
    * out sample-major; attention is computed within each sample's T tokens.
    */
  def batchedAttention(q: Node, k: Node, v: Node, tokens: Int)(implicit t: Tape): Node = {
    val bt = q.v.rows
    require(bt % tokens == 0, "batchedAttention: rows not divisible by tokens")
    val b = bt / tokens
    val dk = q.v.cols
    require(k.v.cols == dk && v.v.rows == bt, "batchedAttention shape mismatch")
    val dv = v.v.cols
    val scaleF = 1.0 / math.sqrt(dk.toDouble)
    val attn = Tensor.zeros(bt, tokens) // row (b*T+i) holds softmax over sample b's tokens
    val out = Tensor.zeros(bt, dv)
    var bi = 0
    while (bi < b) {
      val base = bi * tokens
      var i = 0
      while (i < tokens) {
        var mx = Double.NegativeInfinity
        var j = 0
        while (j < tokens) {
          var s = 0.0; var c = 0
          while (c < dk) { s += q.v(base + i, c) * k.v(base + j, c); c += 1 }
          attn(base + i, j) = s * scaleF
          mx = math.max(mx, attn(base + i, j))
          j += 1
        }
        var z = 0.0
        j = 0
        while (j < tokens) { val e = math.exp(attn(base + i, j) - mx); attn(base + i, j) = e; z += e; j += 1 }
        j = 0
        while (j < tokens) {
          attn(base + i, j) /= z
          var c = 0
          while (c < dv) { out.data((base + i) * dv + c) += attn(base + i, j) * v.v(base + j, c); c += 1 }
          j += 1
        }
        i += 1
      }
      bi += 1
    }
    val node = new Node(out)
    node.backFn = () => {
      val (qg, kg, vg) = (q.grad, k.grad, v.grad)
      var bi = 0
      while (bi < b) {
        val base = bi * tokens
        var i = 0
        while (i < tokens) {
          // dA[i,j] = dot(dOut[i], V[j]); dV[j] += A[i,j]*dOut[i]
          val dA = new Array[Double](tokens)
          var j = 0
          while (j < tokens) {
            var s = 0.0; var c = 0
            while (c < dv) {
              s += node.g((base + i), c) * v.v(base + j, c)
              vg.data((base + j) * dv + c) += attn(base + i, j) * node.g(base + i, c)
              c += 1
            }
            dA(j) = s
            j += 1
          }
          // softmax backward: dS[j] = A[j]*(dA[j]-Σ dA∘A)
          var dot = 0.0
          j = 0
          while (j < tokens) { dot += dA(j) * attn(base + i, j); j += 1 }
          j = 0
          while (j < tokens) {
            val dS = attn(base + i, j) * (dA(j) - dot) * scaleF
            var c = 0
            while (c < dk) {
              qg.data((base + i) * dk + c) += dS * k.v(base + j, c)
              kg.data((base + j) * dk + c) += dS * q.v(base + i, c)
              c += 1
            }
            j += 1
          }
          i += 1
        }
        bi += 1
      }
    }
    node
  }
}
