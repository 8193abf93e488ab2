
program linpackd
  input integer :: n = 14, trials = 4
  integer :: i, j, t
  real :: a(16, 16), b(16), x(16)
  real :: resid
  do t = 1, trials
    do i = 1, n
      do j = 1, n
        a(i, j) = 1.0 / real(i + j - 1)
      end do
      a(i, i) = a(i, i) + real(n)
      b(i) = 1.0
    end do
    call dgefa(n, a)
    call dgesl(n, a, b, x)
  end do
  resid = 0.0
  do i = 1, n
    resid = resid + x(i)
  end do
  print resid
end program

subroutine dgefa(n, a)
  integer :: n, i, j, k
  real :: a(16, 16)
  real :: pivot, mult
  do k = 1, n - 1
    pivot = a(k, k)
    do i = k + 1, n
      mult = a(i, k) / pivot
      a(i, k) = mult
      do j = k + 1, n
        a(i, j) = a(i, j) - mult * a(k, j)
      end do
    end do
  end do
end subroutine

subroutine dgesl(n, a, b, x)
  integer :: n, i, j
  real :: a(16, 16), b(16), x(16)
  real :: s
  do i = 1, n
    s = b(i)
    do j = 1, i - 1
      s = s - a(i, j) * x(j)
    end do
    x(i) = s
  end do
  do i = 1, n
    x(i) = x(i) / a(i, i)
  end do
end subroutine
